/**
 * TraceCache and the live-first / record-on-reuse study path: the
 * first timing of a compile key runs live and records nothing, the
 * second records one trace (even under a concurrent sweep) and
 * replays it, later ones replay; LRU eviction under a byte budget;
 * transparent fallback for trapped or over-budget recordings; and
 * byte-identical outcomes live vs replay, cached vs uncached, at any
 * job count.
 */

#include <gtest/gtest.h>

#include "core/machine/models.hh"
#include "core/study/experiment.hh"
#include "core/study/sweep.hh"
#include "core/study/tracecache.hh"
#include "support/metrics.hh"
#include "tests/helpers.hh"

namespace ilp {
namespace {

const Workload &
smallWorkload()
{
    return workloadByName("whet");
}

Module
compiledFor(const Workload &w, const MachineConfig &machine)
{
    return compileWorkload(w.source, machine,
                           defaultCompileOptions(w));
}

TEST(ParseByteSizeTest, AcceptsDigitsWithBinarySuffix)
{
    std::size_t v = 0;
    EXPECT_TRUE(parseByteSize("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseByteSize("65536", v));
    EXPECT_EQ(v, 65536u);
    EXPECT_TRUE(parseByteSize("4k", v));
    EXPECT_EQ(v, 4096u);
    EXPECT_TRUE(parseByteSize("512M", v));
    EXPECT_EQ(v, std::size_t{512} << 20);
    EXPECT_TRUE(parseByteSize("2g", v));
    EXPECT_EQ(v, std::size_t{2} << 30);
}

TEST(ParseByteSizeTest, RejectsGarbageAndOverflow)
{
    std::size_t v = 1234;
    EXPECT_FALSE(parseByteSize("", v));
    EXPECT_FALSE(parseByteSize("g", v));
    EXPECT_FALSE(parseByteSize("-1", v));
    EXPECT_FALSE(parseByteSize("1.5g", v));
    EXPECT_FALSE(parseByteSize("10x", v));
    EXPECT_FALSE(parseByteSize("99999999999999999999", v));
    EXPECT_FALSE(parseByteSize("99999999999999999g", v));
    EXPECT_EQ(v, 1234u); // untouched on failure
}

TEST(TraceCacheTest, ExecutesOncePerKeyAndCountsHits)
{
    Module m = compiledFor(smallWorkload(), idealSuperscalar(4));
    TraceCache cache;
    auto a = cache.execute("k", m);
    auto b = cache.execute("k", m);
    EXPECT_EQ(a.get(), b.get()); // same artifact, not a re-execution
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.bytesHeld(), a->byteSize());
    EXPECT_TRUE(a->replayable);
}

TEST(TraceCacheTest, ExecutesOncePerKeyUnderConcurrency)
{
    Module m = compiledFor(smallWorkload(), idealSuperscalar(4));
    TraceCache cache;
    SweepRunner runner(8);
    runner.run(16, [&](std::size_t) {
        auto art = cache.execute("k", m);
        EXPECT_TRUE(art->replayable);
    });
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 15u);
}

TEST(TraceCacheTest, EvictsLeastRecentlyUsedUnderATinyBudget)
{
    // Two keys over one module, so both entries have identical size;
    // a budget holding exactly one forces the older entry out, and a
    // re-request of the evicted key re-executes (a new miss).
    Module m = compiledFor(smallWorkload(), idealSuperscalar(4));
    TraceCache cache;
    auto first = cache.execute("a", m);
    ASSERT_TRUE(first->replayable);
    cache.setBudget(first->byteSize() + sizeof(PackedInstr));

    auto second = cache.execute("b", m);
    ASSERT_TRUE(second->replayable);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_LE(cache.bytesHeld(), cache.budget());

    cache.execute("a", m); // evicted above: this is a fresh miss
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.evictions(), 2u); // "b" went out in turn
}

TEST(TraceCacheTest, SetBudgetShrinkEvictsDownDeterministically)
{
    // Regression for the shrink path: setBudget below the held bytes
    // must evict immediately (not wait for the next execute), in LRU
    // order, and the cache atomics must reconcile with the global
    // metrics counters that mirror them.
    Module m = compiledFor(smallWorkload(), idealSuperscalar(4));
    TraceCache cache;
    auto a = cache.execute("a", m);
    ASSERT_TRUE(a->replayable);
    cache.execute("b", m);
    cache.execute("c", m);
    cache.execute("a", m); // refresh "a": LRU order is now b, c, a
    const std::size_t one = a->byteSize();
    ASSERT_EQ(cache.bytesHeld(), 3 * one);

    auto &evTotal = metrics::Registry::global().counter(
        "ssim_trace_cache_evictions_total");
    auto &bytesGauge = metrics::Registry::global().gauge(
        "ssim_trace_cache_bytes");
    const std::uint64_t evBefore = evTotal.value();

    cache.setBudget(one); // room for exactly one entry
    EXPECT_EQ(cache.evictions(), 2u); // b then c went out, not a
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.bytesHeld(), one);
    EXPECT_LE(cache.bytesHeld(), cache.budget());
    EXPECT_EQ(evTotal.value() - evBefore, 2u);
    EXPECT_DOUBLE_EQ(bytesGauge.value(),
                     static_cast<double>(cache.bytesHeld()));

    // The survivor is the most recently used entry, served as a hit.
    const std::uint64_t hitsBefore = cache.hits();
    const std::uint64_t missesBefore = cache.misses();
    cache.execute("a", m);
    EXPECT_EQ(cache.hits(), hitsBefore + 1);
    EXPECT_EQ(cache.misses(), missesBefore);

    // Artifacts handed out before the shrink stay valid: eviction
    // drops the cache's reference, not the shared ownership.
    EXPECT_TRUE(a->replayable);
    EXPECT_GT(a->trace.size(), 0u);
}

TEST(TraceCacheTest, ShrinkUnderConcurrentReadersNeverPoisons)
{
    // Readers racing a shrink must always receive a usable artifact:
    // entries admitted before the shrink replay, entries admitted
    // after record against the tiny budget and fall back — never a
    // broken future or a trapped-looking result.
    Module m = compiledFor(smallWorkload(), idealSuperscalar(4));
    TraceCache cache;
    SweepRunner runner(8);
    runner.run(32, [&](std::size_t i) {
        if (i == 7)
            cache.setBudget(sizeof(PackedInstr));
        auto art = cache.execute("k" + std::to_string(i % 4), m);
        ASSERT_NE(art, nullptr);
        EXPECT_FALSE(art->result.trapped());
        EXPECT_GT(art->result.instructions, 0u);
    });
    EXPECT_LE(cache.bytesHeld(), cache.budget());
    EXPECT_EQ(cache.hits() + cache.misses(), 32u);
}

TEST(TraceCacheTest, ZeroBudgetDisablesTheCache)
{
    TraceCache cache(0);
    EXPECT_FALSE(cache.enabled());
    cache.setBudget(1024);
    EXPECT_TRUE(cache.enabled());
}

TEST(TraceCacheTest, OverBudgetExecutionFallsBackNotOverflows)
{
    // A budget smaller than the trace: recording stops, the artifact
    // is non-replayable, but the functional results are still good.
    Module m = compiledFor(smallWorkload(), idealSuperscalar(4));
    TraceCache cache(4 * sizeof(PackedInstr));
    auto art = cache.execute("k", m);
    EXPECT_FALSE(art->replayable);
    EXPECT_EQ(art->trace.size(), 0u);
    EXPECT_FALSE(art->result.trapped());
    EXPECT_GT(art->result.instructions, 0u);
    EXPECT_EQ(cache.bytesHeld(), 0u);

    // Timing the key: live first, then a recording over budget that
    // falls back to live timing — same outcome either way.
    const MachineConfig machine = idealSuperscalar(4);
    RunOutcome first = cache.timedRun("over", m, machine);
    RunOutcome second = cache.timedRun("over", m, machine);
    EXPECT_EQ(cache.fallbacks(), 1u);
    EXPECT_EQ(second.cycles, first.cycles);
    EXPECT_EQ(second.checksum, first.checksum);
    EXPECT_EQ(cache.bytesHeld(), 0u);
}

TEST(TraceCacheTest, TrappedExecutionYieldsNonReplayableArtifact)
{
    Module m = compileToIr(R"(
        var int zero;
        func main() : int { return 1 / zero; })");
    OptimizeOptions oo;
    oo.level = OptLevel::None;
    optimizeModule(m, baseMachine(), oo);

    TraceCache cache;
    auto art = cache.execute("trap", m);
    EXPECT_FALSE(art->replayable);
    ASSERT_TRUE(art->result.trapped());
    EXPECT_EQ(art->result.trap.code, ErrCode::TrapDivideByZero);
    // The trapped artifact holds no trace bytes against the budget.
    EXPECT_EQ(cache.bytesHeld(), 0u);

    // The transparent fallback (live re-interpretation) re-traps
    // identically, so RunOutcome::trap is machine-independent of the
    // cache state.
    RunOutcome live = runOnMachine(m, idealSuperscalar(4));
    ASSERT_TRUE(live.trapped());
    EXPECT_EQ(live.trap.code, art->result.trap.code);
    EXPECT_EQ(live.trap.function, art->result.trap.function);
    EXPECT_EQ(live.trap.instruction, art->result.trap.instruction);
}

TEST(TraceCacheTest, ExportStatsNamesTheCounters)
{
    Module m = compiledFor(smallWorkload(), idealSuperscalar(4));
    TraceCache cache;
    cache.execute("k", m);
    cache.execute("k", m);

    stats::Registry registry;
    cache.exportStats(registry.group("trace_cache", "trace cache"));
    stats::StatsSnapshot snap = registry.snapshot();
    EXPECT_DOUBLE_EQ(snap.number("trace_cache.hits"), 1.0);
    EXPECT_DOUBLE_EQ(snap.number("trace_cache.misses"), 1.0);
    EXPECT_DOUBLE_EQ(snap.number("trace_cache.evictions"), 0.0);
    EXPECT_DOUBLE_EQ(snap.number("trace_cache.fallbacks"), 0.0);
    EXPECT_DOUBLE_EQ(snap.number("trace_cache.entries"), 1.0);
    EXPECT_GT(snap.number("trace_cache.bytes_held"), 0.0);
}

// ------------------------------------------------- study integration

TEST(StudyTraceTest, TimedRunMatchesLiveRunExactly)
{
    const Workload &w = smallWorkload();
    const MachineConfig machine = idealSuperscalar(4);
    const CompileOptions options = defaultCompileOptions(w);

    RunTelemetryOptions telemetry;
    telemetry.collectStats = true;

    RunOutcome live = runWorkload(w, machine, options, telemetry);

    Study study(1);
    RunOutcome cold = study.timedRun(w, machine, options, telemetry);
    RunOutcome recorded =
        study.timedRun(w, machine, options, telemetry);
    RunOutcome warm = study.timedRun(w, machine, options, telemetry);
    // Live, then recorded (both executed), then replayed.
    EXPECT_EQ(study.traceCache().misses(), 2u);
    EXPECT_EQ(study.traceCache().hits(), 1u);

    for (const RunOutcome *out : {&cold, &recorded, &warm}) {
        EXPECT_EQ(out->checksum, live.checksum);
        EXPECT_EQ(out->checksum, w.expected);
        EXPECT_EQ(out->fpChecksum, live.fpChecksum);
        EXPECT_EQ(out->instructions, live.instructions);
        EXPECT_EQ(out->cycles, live.cycles);
    }
}

/** Zero the wall-time leaves (the only nondeterministic stats). */
Json
scrubWallTimes(const Json &node)
{
    if (!node.isObject())
        return node;
    Json out = Json::object();
    for (const auto &[key, value] : node.asObject()) {
        if (key == "wall_ms" || key == "spans")
            out.set(key, Json(0.0));
        else
            out.set(key, scrubWallTimes(value));
    }
    return out;
}

TEST(StudyTraceTest, StatsSnapshotsAgreeLiveVsReplay)
{
    const Workload &w = smallWorkload();
    const MachineConfig machine = idealSuperscalar(4);
    const CompileOptions options = defaultCompileOptions(w);
    RunTelemetryOptions telemetry;
    telemetry.collectStats = true;

    Study cached(1);
    cached.timedRun(w, machine, options, telemetry); // live first
    RunOutcome recorded =
        cached.timedRun(w, machine, options, telemetry);
    RunOutcome replay = cached.timedRun(w, machine, options, telemetry);
    ASSERT_EQ(cached.traceCache().hits(), 1u);

    Study uncached(1);
    uncached.traceCache().setBudget(0);
    RunOutcome live = uncached.timedRun(w, machine, options, telemetry);

    EXPECT_EQ(scrubWallTimes(replay.stats.root).dump(),
              scrubWallTimes(live.stats.root).dump());
    EXPECT_EQ(scrubWallTimes(recorded.stats.root).dump(),
              scrubWallTimes(live.stats.root).dump());
}

TEST(StudyTraceTest, OneExecutionPerCompileKeyAcrossAMachineSweep)
{
    // Machines differing only in latency/name share a compile key —
    // and so, once the key is timed again, a single recording; the
    // paper's compile-once / time-many loop.
    const Workload &w = smallWorkload();
    Study study(1);
    const CompileOptions options = defaultCompileOptions(w);

    MachineConfig fast = multiTitan();
    MachineConfig slow = cray1();
    // MultiTitan and CRAY-1 differ in scheduler-visible latencies, so
    // each gets its own compile key; the *renamed* MultiTitan shares
    // one.
    MachineConfig renamed = multiTitan();
    renamed.name = "multititan-copy";

    study.timedRun(w, fast, options);    // live
    study.timedRun(w, slow, options);    // live, its own key
    study.timedRun(w, renamed, options); // fast's key again: records
    study.timedRun(w, fast, options);    // replays that recording
    EXPECT_EQ(study.traceCache().misses(), 3u);
    EXPECT_EQ(study.traceCache().hits(), 1u);
    EXPECT_EQ(study.traceCache().size(), 1u);
}

TEST(StudyTraceTest, SpeedupIdenticalAtAnyJobCountAndBudget)
{
    const Workload &w = smallWorkload();
    const CompileOptions options = defaultCompileOptions(w);

    // Reference: serial, cache disabled (pure live interpretation).
    std::vector<double> reference;
    {
        Study study(1);
        study.traceCache().setBudget(0);
        for (int d = 1; d <= 4; ++d)
            reference.push_back(
                study.speedup(w, idealSuperscalar(d), options));
    }

    for (int jobs : {1, 2, 8}) {
        Study study(jobs);
        std::vector<double> got = study.runner().map<double>(
            4, [&](std::size_t i) {
                return study.speedup(
                    w, idealSuperscalar(static_cast<int>(i) + 1),
                    options);
            });
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], reference[i])
                << "degree " << i + 1 << " at jobs " << jobs;
        // Degrees 1..4 have distinct compile keys, each timed live
        // once — and the base machine is scheduler-indistinguishable
        // from degree 1, so that key is timed again (base cycles
        // first, every cell waiting on them) and records: 5
        // executions, one recording.
        EXPECT_EQ(study.traceCache().misses(), 5u);
        EXPECT_EQ(study.traceCache().hits(), 0u);
        EXPECT_EQ(study.traceCache().size(), 1u);
    }
}

// ------------------------------------------------ record-on-reuse

/** Every observable part of a RunOutcome, wall times scrubbed. */
void
expectSameOutcome(const RunOutcome &a, const RunOutcome &b,
                  const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.fpChecksum, b.fpChecksum);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.trap.code, b.trap.code);
    EXPECT_EQ(scrubWallTimes(a.stats.root).dump(),
              scrubWallTimes(b.stats.root).dump());
    ASSERT_EQ(a.issueTimeline.size(), b.issueTimeline.size());
    for (std::size_t i = 0; i < a.issueTimeline.size(); ++i) {
        const IssueEvent &x = a.issueTimeline[i];
        const IssueEvent &y = b.issueTimeline[i];
        EXPECT_EQ(x.cycle, y.cycle) << "event " << i;
        EXPECT_EQ(x.slot, y.slot) << "event " << i;
        EXPECT_EQ(x.latencyMinor, y.latencyMinor) << "event " << i;
        EXPECT_EQ(x.cls, y.cls) << "event " << i;
    }
    EXPECT_EQ(a.timelineDropped, b.timelineDropped);
    ASSERT_EQ(a.pcCounters.size(), b.pcCounters.size());
    for (std::size_t pc = 0; pc < a.pcCounters.size(); ++pc) {
        EXPECT_EQ(a.pcCounters[pc].issued, b.pcCounters[pc].issued)
            << "pc " << pc;
        EXPECT_EQ(a.pcCounters[pc].stallSlots,
                  b.pcCounters[pc].stallSlots)
            << "pc " << pc;
    }
    EXPECT_EQ(a.stalls.slots, b.stalls.slots);
    EXPECT_EQ(a.issueSlotsTotal, b.issueSlotsTotal);
}

RunTelemetryOptions
fullTelemetry()
{
    RunTelemetryOptions t;
    t.collectStats = true;
    t.timelineLimit = 256;
    t.collectProfile = true;
    return t;
}

TEST(RecordOnReuseTest, FirstTimingLiveSecondRecordsThirdReplays)
{
    const Workload &w = smallWorkload();
    const MachineConfig machine = superpipelined(4);
    const CompileOptions options = defaultCompileOptions(w);
    const RunTelemetryOptions telemetry = fullTelemetry();
    Study study(1);
    const TraceCache &cache = study.traceCache();

    RunOutcome live = study.timedRun(w, machine, options, telemetry);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.bytesHeld(), 0u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    RunOutcome recorded =
        study.timedRun(w, machine, options, telemetry);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_GT(cache.bytesHeld(), 0u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 0u);

    RunOutcome replayed =
        study.timedRun(w, machine, options, telemetry);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.fallbacks(), 0u);

    ASSERT_FALSE(live.pcCounters.empty());
    ASSERT_FALSE(live.issueTimeline.empty());
    expectSameOutcome(recorded, live, "recorded vs live");
    expectSameOutcome(replayed, live, "replayed vs live");
}

TEST(RecordOnReuseTest, ConcurrentFirstRequestsRecordAtMostOnce)
{
    const Workload &w = smallWorkload();
    const MachineConfig machine = idealSuperscalar(4);
    const CompileOptions options = defaultCompileOptions(w);
    const RunTelemetryOptions telemetry = fullTelemetry();

    RunOutcome reference = runWorkload(w, machine, options, telemetry);

    Study study(8);
    constexpr std::size_t kRequests = 16;
    std::vector<RunOutcome> got = study.runner().map<RunOutcome>(
        kRequests, [&](std::size_t) {
            return study.timedRun(w, machine, options, telemetry);
        });
    for (std::size_t i = 0; i < got.size(); ++i)
        expectSameOutcome(got[i], reference,
                          "request " + std::to_string(i));
    // One request timed live, at most one recorded, the rest replayed
    // (or parked on the recording).
    const TraceCache &cache = study.traceCache();
    EXPECT_LE(cache.size(), 1u);
    EXPECT_LE(cache.misses(), 2u);
    EXPECT_EQ(cache.hits() + cache.misses(), kRequests);
    EXPECT_EQ(cache.fallbacks(), 0u);
}

TEST(RecordOnReuseTest, LiveFirstTimingIsNeverAFallbackOrDegraded)
{
    const Workload &w = smallWorkload();
    const CompileOptions options = defaultCompileOptions(w);
    Study study(2);
    // A budget no trace fits: any recording would fall back.
    study.traceCache().setBudget(1);
    CellPolicy policy;
    policy.keepGoing = true;
    auto sweep = [&] {
        return study.runner().mapHardened<double>(
            4, policy, [&](std::size_t i) {
                return study
                    .timedRun(w,
                              idealSuperscalar(static_cast<int>(i) + 1),
                              options)
                    .cycles;
            });
    };

    // Four distinct keys, each timed once: all live first timings.
    HardenedSweep<double> first = sweep();
    for (const CellOutcome<double> &c : first.cells) {
        EXPECT_TRUE(c.ok());
        EXPECT_FALSE(c.degraded);
    }
    EXPECT_EQ(first.totals.degraded, 0u);
    EXPECT_EQ(study.traceCache().fallbacks(), 0u);
    EXPECT_EQ(study.traceCache().misses(), 4u);

    // Timed again, every key records over budget and falls back.
    HardenedSweep<double> second = sweep();
    EXPECT_EQ(second.totals.degraded, 4u);
    EXPECT_EQ(study.traceCache().fallbacks(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(second.cells[i].value, first.cells[i].value);
}

using TraceCacheTrapStudy = test::ThrowingErrors;

TEST_F(TraceCacheTrapStudy, TimedRunSurfacesTrapsLikeTheLivePath)
{
    // A workload whose main traps: timedRun must surface the trap in
    // the outcome (not throw, not cache a bogus checksum), both live
    // and when the recording falls back.
    Workload w{"trapper", "always divides by zero",
               R"(var int zero;
                  func main() : int { return 1 / zero; })",
               0, false, 1};
    Study study(1);
    RunOutcome out =
        study.timedRun(w, idealSuperscalar(4),
                       defaultCompileOptions(w));
    ASSERT_TRUE(out.trapped());
    EXPECT_EQ(out.trap.code, ErrCode::TrapDivideByZero);
    EXPECT_EQ(out.checksum, 0);          // satellite: no bogus checksum
    EXPECT_EQ(out.fpChecksum, 0.0);
    EXPECT_EQ(study.traceCache().fallbacks(), 0u); // live first

    RunOutcome again =
        study.timedRun(w, idealSuperscalar(4),
                       defaultCompileOptions(w));
    ASSERT_TRUE(again.trapped());
    EXPECT_EQ(again.trap.code, ErrCode::TrapDivideByZero);
    EXPECT_EQ(again.trap.instruction, out.trap.instruction);
    EXPECT_EQ(again.checksum, 0);
    EXPECT_EQ(study.traceCache().fallbacks(), 1u);

    // And speedup() still converts it into a TrapException for sweep
    // cells, exactly as on the live path.
    EXPECT_THROW(study.speedup(w, idealSuperscalar(4),
                               defaultCompileOptions(w)),
                 TrapException);
}

} // namespace
} // namespace ilp
