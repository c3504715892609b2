/**
 * The dependence-graph what-if engine, differentially validated
 * against the cycle-accurate issue engine.
 *
 * The load-bearing claims, each checked across the whole benchmark
 * suite and a sample of the machine taxonomy:
 *
 *  - the analytic schedule is a true lower bound on the engine's
 *    cycles for every machine, and *equals* them (certified) whenever
 *    the machine has no functional-unit class conflicts — that
 *    equality is what makes pruned sweeps byte-identical;
 *  - slack is non-negative everywhere, critical instructions have
 *    zero slack, and the reported critical edges actually carry the
 *    critical path;
 *  - the graph build is deterministic: the same structure hash at any
 *    job count, trace budget and execution backend (the graph always
 *    streams out of live execution, recording no trace);
 *  - the prune-then-confirm sweep reproduces the unpruned speedups
 *    exactly while running a fraction of the exact replays.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/machine/models.hh"
#include "core/study/experiment.hh"
#include "core/study/whatif.hh"
#include "sim/depgraph.hh"
#include "sim/exec.hh"
#include "tests/helpers.hh"
#include "workloads/workloads.hh"

namespace ilp {
namespace {

/** The taxonomy sample: every certified shape (no functional units)
 *  plus the class-conflict machines the analytic engine only
 *  bounds. */
std::vector<MachineConfig>
machineSample()
{
    return {
        baseMachine(),
        idealSuperscalar(1),
        idealSuperscalar(4),
        superpipelined(3),
        superpipelinedSuperscalar(2, 2),
        underpipelinedHalfIssue(),
        multiTitan(),
        cray1(),
        superscalarWithClassConflicts(4),
        superscalarWithClassConflicts(2, 2, 2),
    };
}

TEST(DepGraphDifferentialTest, AnalyticBoundsTheEngineOnTheSuite)
{
    Study study(4);
    for (const Workload &w : allWorkloads()) {
        const CompileOptions options = defaultCompileOptions(w);
        for (const MachineConfig &machine : machineSample()) {
            auto graph =
                study.dependenceGraph(w, machine, options);
            ASSERT_TRUE(graph && !graph->empty())
                << w.name << " on " << machine.name;
            const AnalyticResult a = graph->analyze(machine);
            const RunOutcome out =
                study.timedRun(w, machine, options);
            ASSERT_FALSE(out.trapped()) << w.name;

            EXPECT_EQ(a.instructions, out.instructions)
                << w.name << " on " << machine.name;
            // True lower bound, always (base cycles are minor cycles
            // over the same integer degree, so <= is exact).
            EXPECT_LE(a.baseCycles, out.cycles)
                << w.name << " on " << machine.name;
            // Oracle and bandwidth bounds sit below the schedule.
            EXPECT_LE(a.criticalPathMinor, a.minorCycles);
            EXPECT_LE(a.issueBoundMinor, a.minorCycles);
            EXPECT_LE(a.unitBoundMinor, a.minorCycles);

            EXPECT_EQ(a.certified, machine.units.empty());
            if (a.certified) {
                // No class conflicts: the analytic walk replicates
                // the issue engine cycle for cycle.
                EXPECT_EQ(a.baseCycles, out.cycles)
                    << w.name << " on " << machine.name;
            }
        }
    }
}

TEST(DepGraphDifferentialTest, UnitLatencySingleIssueIsExact)
{
    // The degenerate corner the paper's base machine defines: unit
    // latencies, one instruction per cycle, no conflicts — analytic
    // cycles must equal both the engine and the instruction count.
    Study study(2);
    for (const Workload &w : allWorkloads()) {
        const CompileOptions options = defaultCompileOptions(w);
        const MachineConfig base = baseMachine();
        auto graph = study.dependenceGraph(w, base, options);
        const AnalyticResult a = graph->analyze(base);
        const RunOutcome out = study.timedRun(w, base, options);
        EXPECT_TRUE(a.certified);
        EXPECT_EQ(a.baseCycles, out.cycles) << w.name;
        EXPECT_EQ(a.instructions, out.instructions) << w.name;
    }
}

TEST(DepGraphPropertyTest, SlackIsNonNegativeAndZeroOnCriticalPath)
{
    Study study(2);
    const Workload &w = workloadByName("whet");
    const CompileOptions options = defaultCompileOptions(w);
    for (const MachineConfig &machine :
         {cray1(), idealSuperscalar(4)}) {
        auto graph = study.dependenceGraph(w, machine, options);
        const SlackReport report = graph->slack(machine, 8);
        EXPECT_GT(report.criticalPathMinor, 0u);

        std::uint64_t critLatency = 0;
        std::uint64_t critCount = 0;
        for (const PcSlack &row : report.perPc) {
            if (row.dynCount == 0)
                continue;
            EXPECT_LE(row.critCount, row.dynCount);
            if (row.critCount > 0) {
                // A critical instance is exactly a zero-slack one.
                EXPECT_EQ(row.minSlackMinor, 0u);
                critLatency += row.critLatencyMinor;
                critCount += row.critCount;
            }
        }
        // Some instruction carries the critical path, and critical
        // latencies cover it (>= because several critical chains may
        // coexist).
        EXPECT_GT(critCount, 0u);
        EXPECT_GE(critLatency, report.criticalPathMinor);

        ASSERT_FALSE(report.topEdges.empty());
        for (const CriticalEdge &e : report.topEdges) {
            EXPECT_GT(e.count, 0u);
            EXPECT_GT(e.latencyMinor, 0u);
        }
        // Hottest-first ordering.
        for (std::size_t i = 1; i < report.topEdges.size(); ++i) {
            EXPECT_GE(report.topEdges[i - 1].latencyMinor,
                      report.topEdges[i].latencyMinor);
        }
    }
}

TEST(DepGraphCacheTest, OnlySuccessfulBuildsCount)
{
    // ssim_depgraph_builds_total reads builds(): a build that throws
    // (an injected depgraph fault, a trap) is a miss, not a build,
    // and the next request builds again.
    DepGraphCache cache;
    EXPECT_THROW(cache.get("key",
                           []() -> DepGraph {
                               throw std::runtime_error("build failed");
                           }),
                 std::runtime_error);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.builds(), 0u);
    EXPECT_EQ(cache.size(), 0u);
    cache.get("key", [] { return DepGraph::Builder().take(); });
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.builds(), 1u);
    cache.get("key", [] { return DepGraph::Builder().take(); });
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.builds(), 1u);
}

TEST(DepGraphPropertyTest, BuildIsDeterministicAcrossJobsAndPaths)
{
    const Workload &w = workloadByName("yacc");
    const CompileOptions options = defaultCompileOptions(w);
    const MachineConfig machine = idealSuperscalar(4);

    std::uint64_t reference = 0;
    std::size_t nodes = 0;
    {
        Study study(1);
        auto graph = study.dependenceGraph(w, machine, options);
        reference = graph->structureHash();
        nodes = graph->size();
        EXPECT_EQ(study.graphCache().misses(), 1u);
        EXPECT_EQ(study.graphCache().builds(), 1u);
        // Second request is served from the cache.
        auto again = study.dependenceGraph(w, machine, options);
        EXPECT_EQ(again.get(), graph.get());
        EXPECT_EQ(study.graphCache().hits(), 1u);
        EXPECT_EQ(study.graphCache().builds(), 1u);
        // The graph streams out of live execution: no trace lookup,
        // nothing recorded.
        EXPECT_EQ(study.traceCache().misses(), 0u);
        EXPECT_EQ(study.traceCache().size(), 0u);
    }
    // Same hash at other job counts (graphs fan out over workers).
    for (int jobs : {2, 8}) {
        Study study(jobs);
        auto graph = study.dependenceGraph(w, machine, options);
        EXPECT_EQ(graph->structureHash(), reference)
            << "jobs " << jobs;
        EXPECT_EQ(graph->size(), nodes);
    }
    // Same hash when the trace cache is disabled.
    {
        Study study(1);
        study.traceCache().setBudget(0);
        auto graph = study.dependenceGraph(w, machine, options);
        EXPECT_EQ(graph->structureHash(), reference);
        EXPECT_EQ(graph->size(), nodes);
    }
    // Same hash streamed out of the interpreter instead of the
    // bytecode VM.
    {
        setDefaultExecBackend(ExecBackend::Interp);
        Study study(1);
        auto graph = study.dependenceGraph(w, machine, options);
        setDefaultExecBackend(std::nullopt);
        EXPECT_EQ(graph->structureHash(), reference);
        EXPECT_EQ(graph->size(), nodes);
    }
}

TEST(DepGraphPruneTest, PrunedSweepMatchesUnprunedExactly)
{
    const Workload &w = workloadByName("whet");
    const CompileOptions options = defaultCompileOptions(w);

    // Unpruned reference: one exact replay per degree.
    std::vector<double> reference;
    {
        Study study(1);
        for (int d = 1; d <= kMaxDegree; ++d)
            reference.push_back(
                study.speedup(w, idealSuperscalar(d), options));
    }

    Study study(2);
    const whatif::PruneOutcome po =
        whatif::prunedIlpSweep(study, w, options, kMaxDegree);
    ASSERT_EQ(po.cells.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(po.cells[i].speedup, reference[i])
            << "degree " << i + 1;
        EXPECT_TRUE(po.cells[i].certified);
        EXPECT_EQ(po.cells[i].error, 0.0);
    }
    // Ideal machines are all certified, so only the two extremes are
    // confirmed: base + 2 replays against base + 8 unpruned.
    EXPECT_EQ(po.exactReplays, 3u);
    EXPECT_EQ(po.exactReplaysUnpruned,
              static_cast<std::uint64_t>(kMaxDegree) + 1);
    EXPECT_EQ(po.maxError, 0.0);
    EXPECT_EQ(po.meanError, 0.0);
    EXPECT_GE(po.exactReplaysUnpruned, 3 * po.exactReplays);
}

using DepGraphTrapTest = test::ThrowingErrors;

TEST_F(DepGraphTrapTest, TrappedWorkloadThrowsInsteadOfBounding)
{
    // A graph of a partial run bounds nothing: surface the trap like
    // profiledRun does.
    Workload w{"trapper", "always divides by zero",
               R"(var int zero;
                  func main() : int { return 1 / zero; })",
               0, false, 1};
    Study study(1);
    EXPECT_THROW(study.dependenceGraph(w, idealSuperscalar(4),
                                       defaultCompileOptions(w)),
                 TrapException);
    // Also on the live-stream path.
    Study uncached(1);
    uncached.traceCache().setBudget(0);
    EXPECT_THROW(uncached.dependenceGraph(w, idealSuperscalar(4),
                                          defaultCompileOptions(w)),
                 TrapException);
}

} // namespace
} // namespace ilp
