/**
 * Differential test of the issue engine's one timing core across the
 * routes that feed it:
 *
 *  - per-record emit(DynInstr) (the TraceSink entry: a batch of one);
 *  - a buffered DynInstr trace replayed as one batch;
 *  - a PackedTrace replayed chunk by chunk;
 *  - live timing on the bytecode VM (records staged in batches);
 *  - live timing on the interpreter backend (what SSIM_EXEC=interp
 *    selects).
 *
 * Every benchmark runs on ideal superscalar 1/2/4/8, superpipelined
 * m = 2 and 3, the CRAY-1 and the MultiTitan (long latencies), two
 * machines with functional units (class conflicts with two ALU
 * copies; one universal unit with issue latency 2) and a machine
 * that does not issue across branches, each with the profile and
 * timeline hooks off and on.  Cycles, the issue histogram, stall
 * attribution, class counts, per-pc counters and the timeline must
 * agree exactly.  Each stream is the benchmark's first kFuel dynamic
 * instructions (the run ends in a fuel trap), which keeps the matrix
 * cheap enough for the sanitizer job and also checks that records
 * staged before a trap are still timed.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/machine/models.hh"
#include "core/study/driver.hh"
#include "sim/exec.hh"
#include "sim/issue.hh"
#include "sim/ptrace.hh"
#include "workloads/workloads.hh"

namespace ilp {
namespace {

constexpr std::uint64_t kFuel = 200'000;
constexpr std::size_t kTimelineLimit = 3000;

std::vector<MachineConfig>
machines()
{
    MachineConfig fenced = idealSuperscalar(4);
    fenced.name = "ss4-fenced";
    fenced.issueAcrossBranches = false;
    return {idealSuperscalar(1),
            idealSuperscalar(2),
            idealSuperscalar(4),
            idealSuperscalar(8),
            superpipelined(2),
            superpipelined(3),
            cray1(),
            multiTitan(),
            superscalarWithClassConflicts(4, 2),
            underpipelinedHalfIssue(),
            fenced};
}

std::unique_ptr<IssueEngine>
makeEngine(const MachineConfig &machine, bool hooks, std::size_t pcs)
{
    auto e = std::make_unique<IssueEngine>(machine);
    if (hooks) {
        e->enableProfile(pcs);
        e->recordTimeline(kTimelineLimit);
    }
    return e;
}

void
expectSameTiming(const IssueEngine &want, const IssueEngine &got)
{
    EXPECT_EQ(got.instructions(), want.instructions());
    EXPECT_EQ(got.minorCycles(), want.minorCycles());
    EXPECT_EQ(got.issueCounts(), want.issueCounts());
    EXPECT_EQ(got.stallBreakdown().slots, want.stallBreakdown().slots);
    EXPECT_EQ(got.classIssued(), want.classIssued());
    ASSERT_EQ(got.profileEnabled(), want.profileEnabled());
    if (want.profileEnabled()) {
        const std::vector<PcCounters> a = want.profileCounters();
        const std::vector<PcCounters> b = got.profileCounters();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t pc = 0; pc < a.size(); ++pc) {
            EXPECT_EQ(b[pc].issued, a[pc].issued) << "pc " << pc;
            EXPECT_EQ(b[pc].stallSlots, a[pc].stallSlots) << "pc " << pc;
        }
    }
    EXPECT_EQ(got.timelineDropped(), want.timelineDropped());
    ASSERT_EQ(got.timeline().size(), want.timeline().size());
    for (std::size_t i = 0; i < want.timeline().size(); ++i) {
        const IssueEvent &a = want.timeline()[i];
        const IssueEvent &b = got.timeline()[i];
        EXPECT_EQ(b.cycle, a.cycle) << "event " << i;
        EXPECT_EQ(b.slot, a.slot) << "event " << i;
        EXPECT_EQ(b.latencyMinor, a.latencyMinor) << "event " << i;
        EXPECT_EQ(b.cls, a.cls) << "event " << i;
    }
}

/** The documented reconciliation of the aggregates and the per-pc
 *  records: a core that charged the two differently fails here even
 *  when every route agrees. */
void
expectReconciled(const IssueEngine &e)
{
    const StallBreakdown bd = e.stallBreakdown();
    EXPECT_EQ(bd.total(), e.lostIssueSlots());
    if (!e.profileEnabled())
        return;
    std::uint64_t issued = 0;
    StallBreakdown charged;
    for (const PcCounters &c : e.profileCounters()) {
        issued += c.issued;
        for (std::size_t k = 0; k < kNumStallCauses; ++k)
            charged.slots[k] += c.stallSlots[k];
    }
    EXPECT_EQ(issued, e.instructions());
    EXPECT_EQ(charged.slots, bd.slots);
}

class IssueCoreTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(IssueCoreTest, EveryRouteTimesIdentically)
{
    const Workload &w = workloadByName(GetParam());
    const Module module = compileWorkload(w.source, idealSuperscalar(4),
                                          defaultCompileOptions(w));
    InterpOptions fuel;
    fuel.fuel = kFuel;

    // The stream, buffered both ways.
    TraceBuffer buffer;
    Interpreter(module, fuel).run("main", &buffer);
    PackedTrace packed;
    PackedSink recorder(packed);
    makeExecutor(module, ExecBackend::Bytecode, fuel)
        ->runPacked("main", recorder);
    ASSERT_TRUE(recorder.complete());
    ASSERT_EQ(packed.size(), buffer.size());
    ASSERT_EQ(buffer.size(), kFuel);

    std::unique_ptr<Executor> vm =
        makeExecutor(module, ExecBackend::Bytecode, fuel);
    ASSERT_EQ(vm->backend(), ExecBackend::Bytecode);
    setDefaultExecBackend(ExecBackend::Interp);
    std::unique_ptr<Executor> interp = makeExecutor(module, fuel);
    setDefaultExecBackend(std::nullopt);
    ASSERT_EQ(interp->backend(), ExecBackend::Interp);

    for (const MachineConfig &machine : machines()) {
        for (bool hooks : {false, true}) {
            SCOPED_TRACE(machine.name + (hooks ? " hooks on" : " hooks off"));
            const std::size_t pcs = module.pcCount();

            auto emitted = makeEngine(machine, hooks, pcs);
            for (const DynInstr &di : buffer.trace())
                emitted->emit(di);
            expectReconciled(*emitted);

            auto batched = makeEngine(machine, hooks, pcs);
            buffer.replay(*batched);
            expectSameTiming(*emitted, *batched);

            auto replayed = makeEngine(machine, hooks, pcs);
            packed.replay(*replayed);
            expectSameTiming(*emitted, *replayed);

            auto live = makeEngine(machine, hooks, pcs);
            const RunResult r = vm->runTimed("main", *live);
            EXPECT_EQ(r.trap.code, ErrCode::TrapFuelExhausted);
            expectSameTiming(*emitted, *live);

            auto interpreted = makeEngine(machine, hooks, pcs);
            interp->runTimed("main", *interpreted);
            expectSameTiming(*emitted, *interpreted);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, IssueCoreTest,
                         ::testing::Values("ccom", "grr", "linpack",
                                           "livermore", "met",
                                           "stanford", "whet", "yacc"),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace ilp
