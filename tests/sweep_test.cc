/**
 * Tests for the parallel sweep engine (core/study/sweep.hh) and the
 * run/stats plumbing it hardened: SweepRunner determinism and error
 * propagation, CompileCache keying, hit accounting and prefix
 * sharing (a module scheduled from a shared prefix equals a fresh
 * compile; failed prefixes are evicted and retried), parallel==
 * serial bit-identity for sweeps/tables/stats, the RunOutcome::ipc
 * zero-cycle guard, non-finite JSON handling, Json::tryParse, and the
 * crash-/concurrency-hardened bench stats trajectory.
 */

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "bench/common.hh"
#include "core/machine/models.hh"
#include "core/study/experiment.hh"
#include "core/study/sweep.hh"
#include "ir/printer.hh"
#include "sim/trap.hh"
#include "tests/helpers.hh"

namespace ilp {
namespace {

// ------------------------------------------------------- SweepRunner

TEST(SweepRunnerTest, CoversEveryIndexExactlyOnce)
{
    for (int jobs : {1, 2, 8}) {
        SweepRunner runner(jobs);
        std::vector<std::atomic<int>> seen(257);
        runner.run(seen.size(),
                   [&](std::size_t i) { seen[i].fetch_add(1); });
        for (std::size_t i = 0; i < seen.size(); ++i)
            EXPECT_EQ(seen[i].load(), 1) << "index " << i
                                         << " jobs " << jobs;
    }
}

TEST(SweepRunnerTest, MapIsIndexOrderedAtAnyJobCount)
{
    SweepRunner serial(1);
    std::vector<long> expect = serial.map<long>(
        100, [](std::size_t i) { return static_cast<long>(i * i); });
    for (int jobs : {2, 8}) {
        SweepRunner runner(jobs);
        std::vector<long> got = runner.map<long>(
            100,
            [](std::size_t i) { return static_cast<long>(i * i); });
        EXPECT_EQ(got, expect) << "jobs " << jobs;
    }
}

TEST(SweepRunnerTest, EmptySweepIsANoop)
{
    SweepRunner runner(4);
    bool called = false;
    runner.run(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(SweepRunnerTest, RethrowsFirstCellException)
{
    SweepRunner runner(4);
    EXPECT_THROW(
        runner.run(64,
                   [](std::size_t i) {
                       if (i == 13)
                           throw std::runtime_error("cell 13");
                   }),
        std::runtime_error);
}

TEST(SweepRunnerTest, JobResolutionFromEnvironment)
{
    ::setenv("SSIM_JOBS", "3", 1);
    EXPECT_EQ(SweepRunner().jobs(), 3);
    ::unsetenv("SSIM_JOBS");
    EXPECT_GE(SweepRunner().jobs(), 1);
    EXPECT_EQ(SweepRunner(7).jobs(), 7);
}

// ------------------------------------------------------ CompileCache

TEST(CompileCacheTest, HitAccountingUnderConcurrency)
{
    const Workload &w = workloadByName("yacc");
    CompileOptions o = defaultCompileOptions(w);
    CompileCache cache;

    SweepRunner runner(8);
    std::vector<std::shared_ptr<const Module>> modules =
        runner.map<std::shared_ptr<const Module>>(
            8, [&](std::size_t) {
                return cache.compile(w, idealSuperscalar(4), o);
            });

    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 7u);
    EXPECT_EQ(cache.size(), 1u);
    for (const auto &m : modules)
        EXPECT_EQ(m.get(), modules[0].get()); // one shared Module
}

TEST(CompileCacheTest, MachineNameDoesNotSplitTheCache)
{
    const Workload &w = workloadByName("whet");
    CompileOptions o = defaultCompileOptions(w);
    MachineConfig a = idealSuperscalar(4);
    MachineConfig b = idealSuperscalar(4);
    b.name = "ss4-relabelled";
    EXPECT_EQ(CompileCache::key(w, a, o), CompileCache::key(w, b, o));

    CompileCache cache;
    cache.compile(w, a, o);
    cache.compile(w, b, o);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(CompileCacheTest, SchedulingParametersSplitTheCache)
{
    const Workload &w = workloadByName("whet");
    CompileOptions o = defaultCompileOptions(w);
    CompileCache cache;
    cache.compile(w, idealSuperscalar(2), o);
    cache.compile(w, idealSuperscalar(4), o);   // width differs
    cache.compile(w, superpipelined(4), o);     // degree differs
    cache.compile(w, cray1(), o);               // latencies differ
    EXPECT_EQ(cache.misses(), 4u);
    EXPECT_EQ(cache.hits(), 0u);

    CompileOptions o2 = o;
    o2.unroll.factor = 2;                       // options differ
    cache.compile(w, idealSuperscalar(2), o2);
    EXPECT_EQ(cache.misses(), 5u);
}

TEST(CompileCacheTest, HitReturnsTheMissTelemetry)
{
    const Workload &w = workloadByName("yacc");
    CompileOptions o = defaultCompileOptions(w);
    CompileCache cache;
    CompileTelemetry first, second;
    cache.compile(w, idealSuperscalar(4), o, &first);
    cache.compile(w, idealSuperscalar(4), o, &second);
    ASSERT_FALSE(first.phases.empty());
    ASSERT_EQ(first.phases.size(), second.phases.size());
    for (std::size_t i = 0; i < first.phases.size(); ++i) {
        EXPECT_EQ(first.phases[i].name, second.phases[i].name);
        EXPECT_EQ(first.phases[i].instrsAfter,
                  second.phases[i].instrsAfter);
    }
}

// ------------------------------------------- keep-going (mapChecked)

TEST(SweepRunnerTest, MapCheckedCompletesEveryCellPastFailures)
{
    // One throwing cell must not cost any other cell, at any job
    // count, and the recorded error must be identical everywhere.
    for (int jobs : {1, 2, 8}) {
        SweepRunner runner(jobs);
        std::vector<CellOutcome<long>> out =
            runner.mapChecked<long>(64, [](std::size_t i) -> long {
                if (i == 13) {
                    throw DiagException(
                        Diag{Severity::Error, ErrCode::SemaUndefined,
                             "undefined variable 'zz'", {}});
                }
                if (i == 40) {
                    throw TrapException(
                        Trap{ErrCode::TrapDivideByZero, "main",
                             "integer division by zero"});
                }
                return static_cast<long>(i * 2);
            });
        ASSERT_EQ(out.size(), 64u) << "jobs " << jobs;
        for (std::size_t i = 0; i < out.size(); ++i) {
            if (i == 13) {
                EXPECT_FALSE(out[i].ok());
                EXPECT_EQ(out[i].error.code, ErrCode::SemaUndefined);
                EXPECT_NE(out[i].error.message.find("'zz'"),
                          std::string::npos);
            } else if (i == 40) {
                EXPECT_FALSE(out[i].ok());
                EXPECT_EQ(out[i].error.code,
                          ErrCode::TrapDivideByZero);
            } else {
                EXPECT_TRUE(out[i].ok()) << "cell " << i << " jobs "
                                         << jobs << ": "
                                         << out[i].error.message;
                EXPECT_EQ(out[i].value, static_cast<long>(i * 2));
            }
        }
    }
}

TEST(SweepRunnerTest, MapCheckedErrorReportingIsDeterministic)
{
    auto sweep = [](int jobs) {
        SweepRunner runner(jobs);
        return runner.mapChecked<int>(32, [](std::size_t i) -> int {
            if (i % 5 == 0)
                throw std::runtime_error("cell " +
                                         std::to_string(i));
            return static_cast<int>(i);
        });
    };
    std::vector<CellOutcome<int>> serial = sweep(1);
    for (int jobs : {2, 8}) {
        std::vector<CellOutcome<int>> parallel = sweep(jobs);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(parallel[i].ok(), serial[i].ok());
            EXPECT_EQ(parallel[i].error.code, serial[i].error.code);
            EXPECT_EQ(parallel[i].error.message,
                      serial[i].error.message);
            EXPECT_EQ(parallel[i].value, serial[i].value);
        }
    }
}

TEST(SweepRunnerTest, MapCheckedTranslatesUnknownExceptions)
{
    SweepRunner runner(1);
    std::vector<CellOutcome<int>> out =
        runner.mapChecked<int>(1, [](std::size_t) -> int {
            throw std::logic_error("surprise");
        });
    ASSERT_FALSE(out[0].ok());
    EXPECT_EQ(out[0].error.code, ErrCode::Internal);
    EXPECT_EQ(out[0].error.message, "surprise");
}

TEST(KeepGoingStudyTest, FailingWorkloadIsolatedFromTheSweep)
{
    // An end-to-end keep-going sweep: one malformed workload among
    // valid ones.  The bad cell reports a stable parse error; the
    // good cells produce real speedups; the whole outcome vector is
    // identical at --jobs 1 and --jobs 8.
    Workload bad{"bad", "malformed", "func main( { return 0; }", 0,
                 false, 1};
    auto sweep = [&](int jobs) {
        Study study(jobs);
        return study.runner().mapChecked<double>(
            4, [&](std::size_t i) {
                if (i == 2)
                    return study.speedup(bad, idealSuperscalar(2));
                return study.speedup(workloadByName("yacc"),
                                     idealSuperscalar(
                                         static_cast<int>(i) + 1));
            });
    };
    std::vector<CellOutcome<double>> serial = sweep(1);
    ASSERT_EQ(serial.size(), 4u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        if (i == 2) {
            EXPECT_FALSE(serial[i].ok());
            EXPECT_NE(serial[i].error.message.find("error["),
                      std::string::npos);
        } else {
            EXPECT_TRUE(serial[i].ok()) << serial[i].error.message;
            EXPECT_GE(serial[i].value, 1.0);
        }
    }
    std::vector<CellOutcome<double>> parallel = sweep(8);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].ok(), serial[i].ok());
        EXPECT_EQ(parallel[i].error.code, serial[i].error.code);
        EXPECT_EQ(parallel[i].error.message, serial[i].error.message);
        EXPECT_EQ(parallel[i].value, serial[i].value);
    }
}

// ------------------------------------- CompileCache failure handling

TEST(CompileCacheTest, FailedCompileDoesNotPoisonTheCache)
{
    Workload bad{"bad", "malformed", "func main( { return 0; }", 0,
                 false, 1};
    CompileOptions o;
    CompileCache cache;

    // Every attempt rethrows the failure and is counted; the entry
    // is evicted each time, so each attempt really recompiles.
    EXPECT_THROW(cache.compile(bad, idealSuperscalar(4), o),
                 DiagException);
    EXPECT_EQ(cache.failures(), 1u);
    EXPECT_EQ(cache.size(), 0u);

    EXPECT_THROW(cache.compile(bad, idealSuperscalar(4), o),
                 DiagException);
    EXPECT_EQ(cache.failures(), 2u);
    EXPECT_EQ(cache.misses(), 2u); // retried, not replayed
    EXPECT_EQ(cache.size(), 0u);

    // The failure carries the structured diagnostics.
    try {
        cache.compile(bad, idealSuperscalar(4), o);
        FAIL() << "expected DiagException";
    } catch (const DiagException &e) {
        EXPECT_FALSE(e.diags().empty());
        EXPECT_NE(e.code(), ErrCode::None);
    }

    // A healthy workload still compiles in the same cache.
    const Workload &good = workloadByName("yacc");
    EXPECT_NE(cache.compile(good, idealSuperscalar(4),
                            defaultCompileOptions(good)),
              nullptr);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(CompileCacheTest, ConcurrentRequestersAllSeeTheFailure)
{
    Workload bad{"bad", "malformed", "func main( { return 0; }", 0,
                 false, 1};
    CompileOptions o;
    CompileCache cache;
    SweepRunner runner(8);
    std::atomic<int> failures{0};
    runner.run(8, [&](std::size_t) {
        try {
            cache.compile(bad, idealSuperscalar(4), o);
        } catch (const DiagException &) {
            failures.fetch_add(1);
        }
    });
    EXPECT_EQ(failures.load(), 8);
    EXPECT_EQ(cache.size(), 0u);
}

// ------------------------------------- CompileCache prefix sharing

/** Per-phase records with wall time left out: everything a shared
 *  prefix must reproduce exactly. */
std::string
phaseSummary(const CompileTelemetry &t)
{
    std::ostringstream os;
    for (const PhaseStat &ps : t.phases) {
        os << ps.name << ' ' << ps.runs << ' ' << ps.instrsBefore
           << ' ' << ps.instrsAfter << ' ' << ps.blocksBefore << ' '
           << ps.blocksAfter << ' ' << ps.changed << '\n';
    }
    os << "spills " << t.spills << " sched " << t.sched.blocksScheduled
       << ' ' << t.sched.blocksSkipped << ' ' << t.sched.slotsFilled
       << ' ' << t.sched.slotsTotal << '\n';
    return os.str();
}

/** One program's compile, printed, or its diagnostics. */
struct CompiledText
{
    std::string text;
    std::string phases;
};

CompiledText
freshCompile(const Workload &w, const MachineConfig &m,
             const CompileOptions &o)
{
    CompileTelemetry t;
    Result<Module> r =
        compileWorkloadChecked(w.source, m, o, &t, w.name);
    if (!r.ok())
        return {"error: " + r.formatErrors(), ""};
    return {toString(r.value()), phaseSummary(t)};
}

CompiledText
cachedCompile(CompileCache &cache, const Workload &w,
              const MachineConfig &m, const CompileOptions &o)
{
    CompileTelemetry t;
    try {
        std::shared_ptr<const Module> mod = cache.compile(w, m, o, &t);
        return {toString(*mod), phaseSummary(t)};
    } catch (const DiagException &e) {
        return {"error: " + formatDiags(e.diags()), ""};
    }
}

TEST(CompileCacheTest, SharedPrefixMatchesAFreshCompile)
{
    // Option sets per benchmark: the default, the two unoptimized
    // levels and a small and a large temp file; linpack also gets
    // careful x10 unrolling with heroic disambiguation.
    struct Job
    {
        const Workload *w;
        CompileOptions o;
    };
    std::vector<Job> jobs;
    for (const Workload &w : allWorkloads()) {
        const CompileOptions base = defaultCompileOptions(w);
        CompileOptions none = base, sched = base, small = base,
                       large = base;
        none.level = OptLevel::None;
        sched.level = OptLevel::Sched;
        small.layout.numTemp = 6;
        large.layout.numTemp = 40;
        for (const CompileOptions &o : {base, none, sched, small, large})
            jobs.push_back({&w, o});
        if (w.name == "linpack") {
            CompileOptions careful = base;
            careful.unroll.factor = 10;
            careful.unroll.careful = true;
            careful.alias = AliasLevel::Heroic;
            careful.layout.numTemp = 40;
            jobs.push_back({&w, careful});
        }
    }
    // A taxonomy sample: ideal superscalars, superpipelined, both
    // CRAY-1 latency tables, MultiTitan and ss8 fenced at branches.
    MachineConfig fenced = idealSuperscalar(8);
    fenced.issueAcrossBranches = false;
    const std::vector<MachineConfig> machines = {
        idealSuperscalar(1), idealSuperscalar(2), idealSuperscalar(8),
        superpipelined(2),   cray1(false),        cray1(true),
        multiTitan(),        fenced};

    CompileCache cache;
    const std::size_t cells = jobs.size() * machines.size();
    std::vector<CompiledText> fresh(cells), cached(cells);
    SweepRunner(4).run(cells, [&](std::size_t i) {
        const Job &j = jobs[i / machines.size()];
        const MachineConfig &m = machines[i % machines.size()];
        fresh[i] = freshCompile(*j.w, m, j.o);
        cached[i] = cachedCompile(cache, *j.w, m, j.o);
    });
    for (std::size_t i = 0; i < cells; ++i) {
        const Job &j = jobs[i / machines.size()];
        SCOPED_TRACE(CompileCache::key(
            *j.w, machines[i % machines.size()], j.o));
        EXPECT_EQ(cached[i].text, fresh[i].text);
        EXPECT_EQ(cached[i].phases, fresh[i].phases);
    }
    // Machines the scheduler cannot tell apart (CRAY-1 with unit
    // latencies and ss1) share an entry.
    std::set<std::string> keys;
    for (std::size_t i = 0; i < cells; ++i) {
        keys.insert(CompileCache::key(*jobs[i / machines.size()].w,
                                      machines[i % machines.size()],
                                      jobs[i / machines.size()].o));
    }
    EXPECT_EQ(cache.prefixMisses(), jobs.size());
    EXPECT_EQ(cache.misses(), keys.size());
}

TEST(CompileCacheTest, MachinesSharingOptionsCompileThePrefixOnce)
{
    const Workload &w = workloadByName("livermore");
    const CompileOptions o = defaultCompileOptions(w);
    CompileCache cache;
    std::vector<CompileTelemetry> tel(8);
    SweepRunner(8).run(8, [&](std::size_t i) {
        cache.compile(w, idealSuperscalar(static_cast<int>(i) + 1), o,
                      &tel[i]);
    });
    EXPECT_EQ(cache.prefixMisses(), 1u);
    EXPECT_EQ(cache.misses(), 8u);
    EXPECT_EQ(cache.size(), 8u);

    // Only the miss that ran the prefix reports its phase times; the
    // machine-level "sched" phase comes last and ran for each.
    int timed = 0;
    for (const CompileTelemetry &t : tel) {
        ASSERT_GE(t.phases.size(), 2u);
        EXPECT_EQ(t.phases.front().name, "frontend");
        EXPECT_EQ(t.phases.back().name, "sched");
        EXPECT_GT(t.phases.back().wallMs, 0.0);
        double prefix_ms = 0.0;
        for (std::size_t p = 0; p + 1 < t.phases.size(); ++p)
            prefix_ms += t.phases[p].wallMs;
        if (prefix_ms > 0.0)
            ++timed;
    }
    EXPECT_EQ(timed, 1);
}

TEST(CompileCacheTest, FailedPrefixIsEvictedAndRetried)
{
    // A temp file too small for the program fails in the prefix:
    // every machine-level requester (and waiter) sees the diagnostic,
    // nothing is cached, and a later request compiles the prefix
    // again.  (No temps at all, for a program whose one value is
    // born and used in adjacent instructions, so nothing can spill.)
    const Workload w{"seven", "returns 7",
                     "func main() : int { return 7; }", 0, false, 1};
    CompileOptions tiny;
    tiny.layout.numTemp = 0;
    CompileCache cache;
    std::atomic<int> failed{0};
    SweepRunner(8).run(8, [&](std::size_t i) {
        try {
            cache.compile(w, idealSuperscalar(static_cast<int>(i) + 1),
                          tiny);
        } catch (const DiagException &e) {
            if (e.code() == ErrCode::OptTempRegsExhausted)
                failed.fetch_add(1);
        }
    });
    EXPECT_EQ(failed.load(), 8);
    EXPECT_EQ(cache.failures(), 8u);
    EXPECT_EQ(cache.size(), 0u);
    const std::uint64_t prefixes = cache.prefixMisses();
    EXPECT_GE(prefixes, 1u);

    EXPECT_THROW(cache.compile(w, idealSuperscalar(1), tiny),
                 DiagException);
    EXPECT_EQ(cache.prefixMisses(), prefixes + 1); // retried
    EXPECT_EQ(cache.failures(), 9u);

    // The same machines still compile with a workable temp file.
    const CompileOptions o;
    for (int n = 1; n <= 8; ++n)
        EXPECT_NE(cache.compile(w, idealSuperscalar(n), o), nullptr);
    EXPECT_EQ(cache.prefixMisses(), prefixes + 2);
    EXPECT_EQ(cache.size(), 8u);
}

TEST(CompileCacheTest, InjectedCompileFaultNeverPoisonsTheCache)
{
    // The compile fault fires at a machine-level miss, before the
    // prefix lookup: a faulted compile caches nothing at either level,
    // and its key compiles once the fault clears.
    const Workload &w = workloadByName("yacc");
    const CompileOptions o = defaultCompileOptions(w);
    CompileCache cache;
    fault::reset();
    ASSERT_TRUE(fault::configure("compile:trap:1:7"));
    EXPECT_THROW(cache.compile(w, idealSuperscalar(4), o),
                 DiagException);
    EXPECT_EQ(cache.failures(), 1u);
    EXPECT_EQ(cache.prefixMisses(), 0u);
    EXPECT_EQ(cache.size(), 0u);

    // At half rate across 8 workers, each machine-level miss either
    // fails alone or schedules the one shared prefix.
    ASSERT_TRUE(fault::configure("compile:trap:0.5:11"));
    std::atomic<int> failed{0};
    SweepRunner(8).run(16, [&](std::size_t i) {
        const int n = static_cast<int>(i % 8) + 1;
        try {
            cache.compile(w, idealSuperscalar(n), o);
        } catch (const DiagException &e) {
            if (e.code() == ErrCode::TrapTransientFault)
                failed.fetch_add(1);
        }
    });
    fault::reset();
    EXPECT_EQ(cache.failures(),
              1u + static_cast<std::uint64_t>(failed.load()));
    EXPECT_LE(cache.prefixMisses(), 1u);

    for (int n = 1; n <= 8; ++n) {
        const MachineConfig m = idealSuperscalar(n);
        EXPECT_EQ(cachedCompile(cache, w, m, o).text,
                  freshCompile(w, m, o).text);
    }
    EXPECT_EQ(cache.prefixMisses(), 1u);
    EXPECT_EQ(cache.size(), 8u);
}

// ---------------------------------------- serial == parallel sweeps

/** Deep-copy a stats tree with every wall-time scalar zeroed: wall
 *  times are the only legitimately nondeterministic leaves. */
Json
scrubWallTimes(const Json &node)
{
    if (node.isObject()) {
        Json out = Json::object();
        for (const auto &[k, v] : node.asObject())
            out.set(k, k == "wall_ms" ? Json(0.0)
                                      : scrubWallTimes(v));
        return out;
    }
    if (node.isArray()) {
        Json out = Json::array();
        for (const auto &v : node.asArray())
            out.push(scrubWallTimes(v));
        return out;
    }
    return node;
}

TEST(ParallelSweepTest, SpeedupGridBitIdenticalAcrossJobCounts)
{
    const std::vector<std::string> names{"yacc", "whet", "linpack"};
    const std::vector<int> degrees{1, 2, 4};

    auto grid = [&](int jobs) {
        Study study(jobs);
        return study.runner().map<double>(
            names.size() * degrees.size(), [&](std::size_t i) {
                const Workload &w =
                    workloadByName(names[i / degrees.size()]);
                return study.speedup(
                    w,
                    idealSuperscalar(degrees[i % degrees.size()]));
            });
    };

    std::vector<double> serial = grid(1);
    for (int jobs : {2, 8}) {
        std::vector<double> parallel = grid(jobs);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(parallel[i], serial[i]) // exact, not NEAR
                << "cell " << i << " jobs " << jobs;
    }
}

TEST(ParallelSweepTest, TableRenderingBitIdentical)
{
    auto render = [&](int jobs) {
        Study study(jobs);
        const std::vector<std::string> names{"yacc", "whet"};
        std::vector<double> cells = study.runner().map<double>(
            names.size() * 4, [&](std::size_t i) {
                return study.speedup(
                    workloadByName(names[i / 4]),
                    idealSuperscalar(static_cast<int>(i % 4) + 1));
            });
        Table t;
        t.setHeader({"benchmark", "n=1", "n=2", "n=3", "n=4"});
        for (std::size_t wi = 0; wi < names.size(); ++wi) {
            auto &row = t.row();
            row.cell(names[wi]);
            for (std::size_t d = 0; d < 4; ++d)
                row.cell(cells[wi * 4 + d], 2);
        }
        return t.render();
    };
    const std::string serial = render(1);
    EXPECT_EQ(render(2), serial);
    EXPECT_EQ(render(8), serial);
}

TEST(ParallelSweepTest, RunOutcomesAndMergedStatsIdentical)
{
    const std::vector<std::string> names{"yacc", "whet"};
    RunTelemetryOptions telemetry;
    telemetry.collectStats = true;

    auto sweep = [&](int jobs) {
        SweepRunner runner(jobs);
        return runner.map<RunOutcome>(
            names.size(), [&](std::size_t i) {
                const Workload &w = workloadByName(names[i]);
                return runWorkload(w, idealSuperscalar(4),
                                   defaultCompileOptions(w),
                                   telemetry);
            });
    };

    std::vector<RunOutcome> serial = sweep(1);
    std::vector<RunOutcome> parallel = sweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].checksum, parallel[i].checksum);
        EXPECT_EQ(serial[i].instructions, parallel[i].instructions);
        EXPECT_EQ(serial[i].cycles, parallel[i].cycles);
        // The merged stats snapshot is identical modulo wall times
        // (the only nondeterministic leaves).
        EXPECT_EQ(scrubWallTimes(serial[i].stats.root).dump(2),
                  scrubWallTimes(parallel[i].stats.root).dump(2))
            << names[i];
    }
}

// ------------------------------------- RunOutcome::ipc / JSON guards

TEST(RunOutcomeTest, IpcOfZeroCycleRunIsFiniteZero)
{
    RunOutcome out;
    out.instructions = 42;
    out.cycles = 0.0;
    EXPECT_EQ(out.ipc(), 0.0);
    EXPECT_TRUE(std::isfinite(out.ipc()));
}

TEST(JsonNonFiniteTest, NonFiniteDoublesBecomeNull)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(Json(inf).isNull());
    EXPECT_TRUE(Json(-inf).isNull());
    EXPECT_TRUE(Json(nan).isNull());
    EXPECT_EQ(Json(inf).dump(), "null");

    Json doc = Json::object();
    doc.set("ipc", Json(nan));
    doc.set("ok", Json(1.5));
    const std::string text = doc.dump();
    // Round trip: the writer's output must re-parse, and the
    // non-finite member survives as null.
    Json back = Json::parse(text);
    EXPECT_TRUE(back.find("ipc")->isNull());
    EXPECT_EQ(back.find("ok")->asNumber(), 1.5);
    EXPECT_TRUE(back == doc);
}

TEST(JsonTryParseTest, ReportsErrorsWithoutFatal)
{
    Json out;
    std::string error;
    EXPECT_FALSE(Json::tryParse("{\"a\": tru", out, &error));
    EXPECT_NE(error.find("parse error"), std::string::npos);
    EXPECT_FALSE(Json::tryParse("", out));
    EXPECT_FALSE(Json::tryParse("[1, 2", out));

    EXPECT_TRUE(Json::tryParse("[1, 2, 3]", out, &error));
    ASSERT_TRUE(out.isArray());
    EXPECT_EQ(out.size(), 3u);
}

// --------------------------------------------- bench stats trajectory

class TrajectoryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "sweep_trajectory_" +
                std::to_string(::getpid()) + ".json";
        std::remove(path_.c_str());
        std::remove((path_ + ".bak").c_str());
        ::setenv("SSIM_BENCH_STATS", path_.c_str(), 1);
    }

    void
    TearDown() override
    {
        ::unsetenv("SSIM_BENCH_STATS");
        std::remove(path_.c_str());
        std::remove((path_ + ".bak").c_str());
        std::remove((path_ + ".lock").c_str());
    }

    std::string
    readFile(const std::string &p) const
    {
        std::ifstream in(p);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    }

    stats::StatsSnapshot
    sampleSnapshot(double v) const
    {
        stats::Registry reg;
        reg.group("run").scalar("value").set(v);
        return reg.snapshot();
    }

    std::string path_;
};

TEST_F(TrajectoryTest, AppendsAccumulateAsAJsonArray)
{
    bench::appendStatsTrajectory("T", "one", sampleSnapshot(1));
    bench::appendStatsTrajectory("T", "two", sampleSnapshot(2));
    Json doc = Json::parse(readFile(path_));
    ASSERT_TRUE(doc.isArray());
    ASSERT_EQ(doc.size(), 2u);
    EXPECT_EQ(doc.asArray()[0].find("label")->asString(), "one");
    EXPECT_EQ(doc.asArray()[1].find("label")->asString(), "two");
}

TEST_F(TrajectoryTest, CorruptFilePreservedAsBakAndRestarted)
{
    {
        std::ofstream out(path_);
        out << "[{\"artifact\": \"T\", trunca";
    }
    bench::appendStatsTrajectory("T", "fresh", sampleSnapshot(3));

    // The fresh trajectory is valid and holds only the new entry...
    Json doc = Json::parse(readFile(path_));
    ASSERT_TRUE(doc.isArray());
    ASSERT_EQ(doc.size(), 1u);
    EXPECT_EQ(doc.asArray()[0].find("label")->asString(), "fresh");
    // ...and the corrupt bytes survive under .bak.
    EXPECT_EQ(readFile(path_ + ".bak"),
              "[{\"artifact\": \"T\", trunca");
}

TEST_F(TrajectoryTest, NonArrayDocumentIsAlsoRestarted)
{
    {
        std::ofstream out(path_);
        out << "{\"not\": \"an array\"}";
    }
    bench::appendStatsTrajectory("T", "x", sampleSnapshot(1));
    Json doc = Json::parse(readFile(path_));
    ASSERT_TRUE(doc.isArray());
    EXPECT_EQ(doc.size(), 1u);
}

TEST_F(TrajectoryTest, ConcurrentAppendsLoseNothing)
{
    constexpr int kThreads = 8;
    constexpr int kAppends = 5;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t]() {
            for (int a = 0; a < kAppends; ++a)
                bench::appendStatsTrajectory(
                    "T", std::to_string(t) + "." + std::to_string(a),
                    sampleSnapshot(t));
        });
    }
    for (auto &th : pool)
        th.join();

    Json doc = Json::parse(readFile(path_));
    ASSERT_TRUE(doc.isArray());
    EXPECT_EQ(doc.size(),
              static_cast<std::size_t>(kThreads * kAppends));
}

} // namespace
} // namespace ilp
