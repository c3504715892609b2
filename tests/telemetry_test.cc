/** End-to-end telemetry: RunOutcome stats snapshots, the stall
 *  attribution invariant on real workloads, compile-phase records,
 *  and the Chrome tracing document shape. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/machine/models.hh"
#include "core/study/driver.hh"
#include "core/study/telemetry.hh"
#include "support/trace.hh"

namespace ilp {
namespace {

Workload
tinyWorkload()
{
    const char *src = R"(
var real a[256];
func main() : int {
    var int i;
    var real t;
    t = 0.5;
    for (i = 0; i < 256; i = i + 1) { a[i] = real(i) * t; }
    for (i = 0; i < 255; i = i + 1) { a[i] = a[i] + a[i + 1]; }
    return int(a[100] * 10.0);
})";
    return Workload{"tiny", "telemetry test program", src, 0, false,
                    1};
}

RunTelemetryOptions
fullTelemetry()
{
    RunTelemetryOptions t;
    t.collectStats = true;
    t.timelineLimit = 4096;
    return t;
}

/** The acceptance invariant: per-cause stall slots sum exactly to the
 *  lost issue slots, and lost + issued slots cover the issue period. */
void
expectStallAccountingExact(const stats::StatsSnapshot &s)
{
    double lost = s.number("issue.lost_issue_slots", -1);
    double causes = s.number("issue.stall.raw_latency") +
                    s.number("issue.stall.unit_conflict") +
                    s.number("issue.stall.branch_fence") +
                    s.number("issue.stall.frontend_drain");
    EXPECT_GE(lost, 0.0);
    EXPECT_DOUBLE_EQ(causes, lost);

    double total = s.number("issue.issue_slots_total", -1);
    double instrs = s.number("issue.instructions", -1);
    EXPECT_DOUBLE_EQ(instrs + lost, total);
}

TEST(TelemetryTest, DefaultRunCollectsNothing)
{
    Workload w = tinyWorkload();
    RunOutcome out = runWorkload(w, idealSuperscalar(4),
                                 defaultCompileOptions(w));
    EXPECT_TRUE(out.stats.empty());
    EXPECT_TRUE(out.issueTimeline.empty());
}

TEST(TelemetryTest, StallSlotsSumToLostSlots)
{
    Workload w = tinyWorkload();
    CompileOptions o = defaultCompileOptions(w);
    for (const MachineConfig &m :
         {idealSuperscalar(4), superpipelined(4), multiTitan(),
          cray1(), superscalarWithClassConflicts(4),
          superpipelinedSuperscalar(2, 2)}) {
        RunOutcome out = runWorkload(w, m, o, fullTelemetry());
        SCOPED_TRACE(m.name);
        ASSERT_FALSE(out.stats.empty());
        expectStallAccountingExact(out.stats);
    }
}

TEST(TelemetryTest, StallSlotsSumOnSuiteWorkloads)
{
    // The acceptance check on the real benchmark suite, on the
    // headline machine.
    for (const auto &w : allWorkloads()) {
        SCOPED_TRACE(w.name);
        RunOutcome out =
            runWorkload(w, idealSuperscalar(4),
                        defaultCompileOptions(w), fullTelemetry());
        expectStallAccountingExact(out.stats);
    }
}

TEST(TelemetryTest, SnapshotAgreesWithOutcome)
{
    Workload w = tinyWorkload();
    RunOutcome out = runWorkload(w, multiTitan(),
                                 defaultCompileOptions(w),
                                 fullTelemetry());
    EXPECT_DOUBLE_EQ(out.stats.number("run.instructions"),
                     static_cast<double>(out.instructions));
    EXPECT_DOUBLE_EQ(out.stats.number("run.base_cycles"), out.cycles);
    EXPECT_DOUBLE_EQ(out.stats.number("run.ipc"), out.ipc());
    // Cache accounting is internally consistent.
    EXPECT_DOUBLE_EQ(out.stats.number("cache.hits") +
                         out.stats.number("cache.misses"),
                     out.stats.number("cache.accesses"));
    // Dynamic mix covers every executed instruction.
    EXPECT_DOUBLE_EQ(out.stats.number("mix.total"),
                     static_cast<double>(out.instructions));
}

TEST(TelemetryTest, CompilePhasesRecorded)
{
    Workload w = tinyWorkload();
    RunOutcome out = runWorkload(w, idealSuperscalar(4),
                                 defaultCompileOptions(w),
                                 fullTelemetry());
    // The frontend and the mandatory pipeline phases always run.
    EXPECT_NE(out.stats.at("compile.phase.frontend"), nullptr);
    EXPECT_NE(out.stats.at("compile.phase.regalloc"), nullptr);
    EXPECT_NE(out.stats.at("compile.phase.sched"), nullptr);
    EXPECT_GE(out.stats.number("compile.wall_ms"), 0.0);
    EXPECT_GT(out.stats.number("compile.sched_fill_rate"), 0.0);
    EXPECT_LE(out.stats.number("compile.sched_fill_rate"), 1.0);

    // Telemetry rides in the outcome too.
    EXPECT_FALSE(out.compile.phases.empty());
    for (const PhaseStat &ps : out.compile.phases) {
        EXPECT_GE(ps.wallMs, 0.0);
        EXPECT_GT(ps.runs, 0u);
    }
}

TEST(TelemetryTest, TimelineRespectsLimit)
{
    Workload w = tinyWorkload();
    RunTelemetryOptions t;
    t.collectStats = true;
    t.timelineLimit = 100;
    RunOutcome out = runWorkload(w, idealSuperscalar(4),
                                 defaultCompileOptions(w), t);
    EXPECT_EQ(out.issueTimeline.size(), 100u);
    EXPECT_GT(out.timelineDropped, 0u);
    EXPECT_EQ(out.issueTimeline.size() + out.timelineDropped,
              out.instructions);
}

TEST(TelemetryTest, TraceEventsDocumentIsWellFormed)
{
    // The compile track comes from the flight-recorder session that
    // covered the compile and the run, as `ssim run --trace-events`
    // records it.
    Workload w = tinyWorkload();
    MachineConfig m = idealSuperscalar(4);
    trace::Recorder::instance().start();
    RunOutcome out =
        runWorkload(w, m, defaultCompileOptions(w), fullTelemetry());
    const trace::Recording rec = trace::Recorder::instance().stop();
    Json doc = buildTraceEvents(out, m, rec);

    // Chrome tracing JSON object format: a traceEvents array whose
    // entries carry name/ph/pid/tid, with ts/dur on "X" events.
    ASSERT_TRUE(doc.isObject());
    const Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_GT(events->size(), 0u);

    std::size_t complete = 0;
    std::vector<std::string> compileTrack;
    for (const Json &e : events->asArray()) {
        ASSERT_TRUE(e.isObject());
        ASSERT_NE(e.find("name"), nullptr);
        ASSERT_NE(e.find("ph"), nullptr);
        ASSERT_NE(e.find("pid"), nullptr);
        ASSERT_NE(e.find("tid"), nullptr);
        const std::string &ph = e.find("ph")->asString();
        if (ph == "X") {
            ++complete;
            ASSERT_NE(e.find("ts"), nullptr);
            ASSERT_NE(e.find("dur"), nullptr);
            EXPECT_GE(e.find("ts")->asNumber(), 0.0);
            EXPECT_GE(e.find("dur")->asNumber(), 0.0);
            if (e.find("pid")->asNumber() == 1.0 &&
                e.find("cat")->asString() == "compile")
                compileTrack.push_back(e.find("name")->asString());
        } else {
            EXPECT_EQ(ph, "M");
        }
    }
    // Every recorded span and every issue event made it in, and the
    // compile track holds the frontend stages and every optimizer
    // phase the compile ran.
    EXPECT_EQ(complete, rec.spans.size() + out.issueTimeline.size());
    auto onTrack = [&](const std::string &name) {
        return std::find(compileTrack.begin(), compileTrack.end(),
                         name) != compileTrack.end();
    };
    EXPECT_TRUE(onTrack("frontend.parse"));
    EXPECT_TRUE(onTrack("frontend.lower"));
    for (const PhaseStat &ps : out.compile.phases) {
        if (ps.name != "frontend") {
            EXPECT_TRUE(onTrack(ps.name)) << ps.name;
        }
    }

    // And the whole document survives a serialize/parse round-trip.
    EXPECT_EQ(Json::parse(doc.dump(2)), doc);
}

TEST(TelemetryTest, StatsDoNotPerturbTiming)
{
    Workload w = tinyWorkload();
    CompileOptions o = defaultCompileOptions(w);
    RunOutcome plain = runWorkload(w, multiTitan(), o);
    RunOutcome observed =
        runWorkload(w, multiTitan(), o, fullTelemetry());
    EXPECT_EQ(plain.checksum, observed.checksum);
    EXPECT_EQ(plain.instructions, observed.instructions);
    EXPECT_DOUBLE_EQ(plain.cycles, observed.cycles);
}

} // namespace
} // namespace ilp
