/**
 * Google-benchmark microbenchmarks of the toolchain itself: compile
 * throughput, functional-simulation rate, and timing-simulation rate.
 * Not a paper artifact — operational health of the reproduction.
 */

#include <benchmark/benchmark.h>

#include <chrono>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "bench/common.hh"
#include "core/study/driver.hh"
#include "core/study/experiment.hh"
#include "core/study/sweep.hh"
#include "core/machine/models.hh"
#include "sim/exec.hh"
#include "sim/interp.hh"
#include "sim/issue.hh"
#include "support/trace.hh"

using namespace ilp;

namespace {

const Workload &
wl()
{
    return workloadByName("yacc");
}

using BenchClock = std::chrono::steady_clock;

double
secondsSince(BenchClock::time_point t0)
{
    return std::chrono::duration<double>(BenchClock::now() - t0)
        .count();
}

/**
 * Record one per-repetition rate sample for the SSIM_BENCH_STATS
 * trajectory (BENCH_throughput.json).  google-benchmark invokes each
 * BM function several times — calibration runs at small iteration
 * counts, then the settled repetitions — so every invocation records
 * one sample here and main() folds each label's samples into a single
 * bench-v2 datapoint (robust summary + provenance) at exit;
 * bench::flushSamples drops the calibration runs as warmup by their
 * iteration counts.  No-op when the trajectory is disabled, so the
 * default bench cost is unchanged.
 */
void
recordRateSample(const std::string &label, const char *unit,
                 double value, const benchmark::State &state)
{
    if (!bench::statsTrajectoryPath())
        return;
    bench::recordSample(label, unit, "higher", value,
                        static_cast<std::uint64_t>(state.iterations()));
}

void
BM_CompileWorkload(benchmark::State &state)
{
    const Workload &w = wl();
    CompileOptions o = defaultCompileOptions(w);
    for (auto _ : state) {
        Module m = compileWorkload(w.source, idealSuperscalar(4), o);
        benchmark::DoNotOptimize(m.functions().size());
    }
}
BENCHMARK(BM_CompileWorkload)->Unit(benchmark::kMillisecond);

void
BM_FunctionalSimulation(benchmark::State &state)
{
    const Workload &w = wl();
    CompileOptions o = defaultCompileOptions(w);
    Module m = compileWorkload(w.source, baseMachine(), o);
    std::uint64_t instrs = 0;
    const auto t0 = BenchClock::now();
    for (auto _ : state) {
        Interpreter interp(m);
        RunResult r = interp.run();
        instrs += r.instructions;
        benchmark::DoNotOptimize(r.returnValue);
    }
    const double wall = secondsSince(t0);
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
    recordRateSample(
        "BM_FunctionalSimulation", "instr_per_s",
        wall > 0.0 ? static_cast<double>(instrs) / wall : 0.0, state);
}
BENCHMARK(BM_FunctionalSimulation)->Unit(benchmark::kMillisecond);

void
BM_BytecodeRun(benchmark::State &state)
{
    // BM_FunctionalSimulation on the bytecode backend: same workload,
    // same artifacts, threaded dispatch over the lowered image.  The
    // image is built once (executors are reusable across runs), so
    // the loop measures pure execution rate; the gap to
    // BM_FunctionalSimulation is the whole bytecode win.
    const Workload &w = wl();
    CompileOptions o = defaultCompileOptions(w);
    Module m = compileWorkload(w.source, baseMachine(), o);
    std::unique_ptr<Executor> exec =
        makeExecutor(m, ExecBackend::Bytecode);
    std::uint64_t instrs = 0;
    const auto t0 = BenchClock::now();
    for (auto _ : state) {
        RunResult r = exec->run();
        instrs += r.instructions;
        benchmark::DoNotOptimize(r.returnValue);
    }
    const double wall = secondsSince(t0);
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
    recordRateSample(
        "BM_BytecodeRun", "instr_per_s",
        wall > 0.0 ? static_cast<double>(instrs) / wall : 0.0, state);
}
BENCHMARK(BM_BytecodeRun)->Unit(benchmark::kMillisecond);

void
BM_TimingSimulation(benchmark::State &state)
{
    const Workload &w = wl();
    CompileOptions o = defaultCompileOptions(w);
    MachineConfig mc = idealSuperscalar(4);
    Module m = compileWorkload(w.source, mc, o);
    Interpreter trace_run(m);
    TraceBuffer trace;
    trace_run.run("main", &trace);
    std::uint64_t instrs = 0;
    const auto t0 = BenchClock::now();
    for (auto _ : state) {
        IssueEngine engine(mc);
        trace.replay(engine);
        instrs += engine.instructions();
        benchmark::DoNotOptimize(engine.baseCycles());
    }
    const double wall = secondsSince(t0);
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
    recordRateSample(
        "BM_TimingSimulation", "instr_per_s",
        wall > 0.0 ? static_cast<double>(instrs) / wall : 0.0, state);
}
BENCHMARK(BM_TimingSimulation)->Unit(benchmark::kMillisecond);

void
BM_LiveRun(benchmark::State &state)
{
    // The coupled path: every iteration re-executes the workload
    // functionally while timing it (the fused runTimed of
    // runOnMachine) — a compile key's first timing.  Against
    // BM_TraceRecord + BM_TraceReplay it prices the live-first /
    // record-on-reuse rule.  The summed interval holds the issue
    // engine's construction, the bytecode VM's execution and the
    // timing of its staged records; each iteration's executor (the
    // lowering to bytecode) is built outside it.
    const Workload &w = wl();
    CompileOptions o = defaultCompileOptions(w);
    MachineConfig mc = idealSuperscalar(4);
    Module m = compileWorkload(w.source, mc, o);
    std::uint64_t instrs = 0;
    double wall = 0.0;
    for (auto _ : state) {
        state.PauseTiming();
        std::unique_ptr<Executor> exec = makeExecutor(m);
        state.ResumeTiming();
        const auto t0 = BenchClock::now();
        IssueEngine engine(mc);
        RunResult r = exec->runTimed("main", engine, nullptr);
        wall += secondsSince(t0);
        instrs += r.instructions;
        benchmark::DoNotOptimize(engine.baseCycles());
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
    recordRateSample(
        "BM_LiveRun", "instr_per_s",
        wall > 0.0 ? static_cast<double>(instrs) / wall : 0.0, state);
}
BENCHMARK(BM_LiveRun)->Unit(benchmark::kMillisecond);

void
BM_TraceReplay(benchmark::State &state)
{
    // The split path: one functional execution up front
    // (executeWorkload), then each iteration is pure timing over the
    // packed trace (timeTrace) — the cost of a timing once its
    // compile key has been recorded.
    const Workload &w = wl();
    CompileOptions o = defaultCompileOptions(w);
    MachineConfig mc = idealSuperscalar(4);
    Module m = compileWorkload(w.source, mc, o);
    TraceArtifact artifact = executeWorkload(m);
    std::uint64_t instrs = 0;
    const auto t0 = BenchClock::now();
    for (auto _ : state) {
        RunOutcome out = timeTrace(artifact, mc);
        instrs += out.instructions;
        benchmark::DoNotOptimize(out.cycles);
    }
    const double wall = secondsSince(t0);
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
    state.counters["trace_mb"] =
        static_cast<double>(artifact.byteSize()) / (1024.0 * 1024.0);
    recordRateSample(
        "BM_TraceReplay", "instr_per_s",
        wall > 0.0 ? static_cast<double>(instrs) / wall : 0.0, state);
}
BENCHMARK(BM_TraceReplay)->Unit(benchmark::kMillisecond);

void
BM_TraceRecord(benchmark::State &state)
{
    // The recording half alone: each iteration packs a whole trace
    // (executeWorkload), first-touch page faults included — what a
    // compile key pays when it is timed a second time.  Freed pages
    // go back to the OS between iterations, so every recording
    // touches fresh memory as it does in a sweep.
    const Workload &w = wl();
    CompileOptions o = defaultCompileOptions(w);
    MachineConfig mc = idealSuperscalar(4);
    Module m = compileWorkload(w.source, mc, o);
    std::uint64_t instrs = 0;
    std::size_t bytes = 0;
    double wall = 0.0;
    for (auto _ : state) {
        const auto t0 = BenchClock::now();
        TraceArtifact artifact = executeWorkload(m);
        wall += secondsSince(t0);
        instrs += artifact.result.instructions;
        bytes = artifact.byteSize();
        benchmark::DoNotOptimize(artifact.trace.size());
        state.PauseTiming();
        artifact = TraceArtifact{};
#ifdef __GLIBC__
        malloc_trim(0);
#endif
        state.ResumeTiming();
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
    state.counters["trace_mb"] =
        static_cast<double>(bytes) / (1024.0 * 1024.0);
    recordRateSample(
        "BM_TraceRecord", "instr_per_s",
        wall > 0.0 ? static_cast<double>(instrs) / wall : 0.0, state);
}
BENCHMARK(BM_TraceRecord)->Unit(benchmark::kMillisecond);

void
BM_ProfiledReplay(benchmark::State &state)
{
    // BM_TraceReplay with the cycle profiler on: the per-pc counter
    // updates are the only delta, so the gap to BM_TraceReplay is the
    // whole observability cost (profiling off must stay at
    // BM_TraceReplay speed — it is a single predictable branch).
    const Workload &w = wl();
    CompileOptions o = defaultCompileOptions(w);
    MachineConfig mc = idealSuperscalar(4);
    Module m = compileWorkload(w.source, mc, o);
    TraceArtifact artifact = executeWorkload(m);
    RunTelemetryOptions t;
    t.collectProfile = true;
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        RunOutcome out = timeTrace(artifact, mc, t);
        instrs += out.instructions;
        benchmark::DoNotOptimize(out.pcCounters.data());
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ProfiledReplay)->Unit(benchmark::kMillisecond);

void
BM_CompileScheduleOnly(benchmark::State &state)
{
    // The machine level of the compile cache: with the (workload,
    // options) prefix already compiled, each compile for a new
    // machine copies the allocated module and schedules, verifies and
    // numbers it.  Each iteration is 8 such misses (ideal
    // superscalar degrees 1..8) on a fresh cache whose prefix is
    // warmed outside the summed interval.
    const Workload &w = wl();
    CompileOptions o = defaultCompileOptions(w);
    std::uint64_t compiles = 0;
    double wall = 0.0;
    for (auto _ : state) {
        state.PauseTiming();
        CompileCache cache;
        cache.compile(w, cray1(), o);
        state.ResumeTiming();
        const auto t0 = BenchClock::now();
        for (int n = 1; n <= kMaxDegree; ++n)
            benchmark::DoNotOptimize(
                cache.compile(w, idealSuperscalar(n), o).get());
        wall += secondsSince(t0);
        compiles += cache.misses() - 1;
    }
    state.counters["compiles/s"] = benchmark::Counter(
        static_cast<double>(compiles), benchmark::Counter::kIsRate);
    recordRateSample(
        "BM_CompileScheduleOnly", "compiles_per_s",
        wall > 0.0 ? static_cast<double>(compiles) / wall : 0.0, state);
}
BENCHMARK(BM_CompileScheduleOnly)->Unit(benchmark::kMillisecond);

void
BM_CompileCacheHit(benchmark::State &state)
{
    // Steady-state cost of a shared compilation lookup (one compile,
    // then all hits).
    const Workload &w = wl();
    CompileOptions o = defaultCompileOptions(w);
    CompileCache cache;
    cache.compile(w, idealSuperscalar(4), o);
    const auto t0 = BenchClock::now();
    for (auto _ : state) {
        std::shared_ptr<const Module> m =
            cache.compile(w, idealSuperscalar(4), o);
        benchmark::DoNotOptimize(m.get());
    }
    const double wall = secondsSince(t0);
    state.counters["hit_rate"] =
        static_cast<double>(cache.hits()) /
        static_cast<double>(cache.hits() + cache.misses());
    // Hits per second, not raw loop wall time: a rate stays
    // comparable across runs whose iteration counts differ.  Its own
    // label: the BM_CompileCacheHit points in the trajectory are
    // legacy loop times (wall_s), a different quantity.
    recordRateSample(
        "BM_CompileCacheHitRate", "hits_per_s",
        wall > 0.0 ? static_cast<double>(state.iterations()) / wall
                   : 0.0,
        state);
}
BENCHMARK(BM_CompileCacheHit);

void
BM_ParallelSweep(benchmark::State &state)
{
    // A figure-4-5-shaped sweep slice (2 workloads x degrees 1..4) at
    // Arg jobs (0 = all cores).  A fresh Study per iteration keeps
    // the compile cache cold, so this measures the full
    // compile+simulate pipeline under the worker pool.
    const std::vector<const Workload *> wls{
        &workloadByName("yacc"), &workloadByName("whet")};
    const auto t0 = BenchClock::now();
    for (auto _ : state) {
        Study study(static_cast<int>(state.range(0)));
        std::vector<double> cells =
            study.runner().map<double>(wls.size() * 4,
                                       [&](std::size_t i) {
                return study.speedup(
                    *wls[i / 4],
                    idealSuperscalar(static_cast<int>(i % 4) + 1));
            });
        benchmark::DoNotOptimize(cells.data());
    }
    const double wall = secondsSince(t0);
    state.counters["jobs"] = static_cast<double>(
        SweepRunner(static_cast<int>(state.range(0))).jobs());
    recordRateSample(
        "BM_ParallelSweep/" + std::to_string(state.range(0)),
        "cells_per_s",
        wall > 0.0
            ? static_cast<double>(state.iterations()) * 8.0 / wall
            : 0.0,
        state);
}
BENCHMARK(BM_ParallelSweep)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

void
BM_ParallelSweepTraced(benchmark::State &state)
{
    // BM_ParallelSweep with a flight-recorder session armed around
    // every iteration (the recording is drained and discarded): the
    // tracing-on overhead that scripts/check.sh holds under its 2%
    // soft budget.
    const std::vector<const Workload *> wls{
        &workloadByName("yacc"), &workloadByName("whet")};
    std::size_t spans = 0;
    const auto t0 = BenchClock::now();
    for (auto _ : state) {
        trace::Recorder::instance().start();
        Study study(static_cast<int>(state.range(0)));
        std::vector<double> cells =
            study.runner().map<double>(wls.size() * 4,
                                       [&](std::size_t i) {
                return study.speedup(
                    *wls[i / 4],
                    idealSuperscalar(static_cast<int>(i % 4) + 1));
            });
        benchmark::DoNotOptimize(cells.data());
        trace::Recording rec = trace::Recorder::instance().stop();
        spans += rec.spans.size();
        benchmark::DoNotOptimize(rec.spans.data());
    }
    const double wall = secondsSince(t0);
    state.counters["jobs"] = static_cast<double>(
        SweepRunner(static_cast<int>(state.range(0))).jobs());
    state.counters["spans"] = static_cast<double>(
        state.iterations() > 0
            ? spans / static_cast<std::size_t>(state.iterations())
            : 0);
    recordRateSample(
        "BM_ParallelSweepTraced/" + std::to_string(state.range(0)),
        "cells_per_s",
        wall > 0.0
            ? static_cast<double>(state.iterations()) * 8.0 / wall
            : 0.0,
        state);
}
BENCHMARK(BM_ParallelSweepTraced)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

void
BM_WhatIfQuery(benchmark::State &state)
{
    // One analytic analyze() over a prebuilt dependence graph — the
    // per-cell cost of a pruned sweep, to be read against
    // BM_TimingReplay (the exact replay it substitutes for).
    const Workload &w = wl();
    const CompileOptions o = defaultCompileOptions(w);
    const MachineConfig machine = idealSuperscalar(4);
    Study study(1);
    auto graph = study.dependenceGraph(w, machine, o);
    std::uint64_t nodes = 0;
    const auto t0 = BenchClock::now();
    for (auto _ : state) {
        AnalyticResult a = graph->analyze(machine);
        nodes += a.instructions;
        benchmark::DoNotOptimize(a.minorCycles);
    }
    const double wall = secondsSince(t0);
    recordRateSample(
        "BM_WhatIfQuery", "instr_per_s",
        wall > 0.0 ? static_cast<double>(nodes) / wall : 0.0, state);
}
BENCHMARK(BM_WhatIfQuery)->Unit(benchmark::kMillisecond);

void
BM_PrunedSweep(benchmark::State &state)
{
    // The figure-4-1 degree sweep through prune-then-confirm: same
    // output as the exact sweep inside BM_ParallelSweep's cells, but
    // only the extreme cells replay.  Fresh Study per iteration so
    // graph/trace caches start cold, matching BM_ParallelSweep.
    const Workload &w = workloadByName("whet");
    const CompileOptions o = defaultCompileOptions(w);
    std::uint64_t replays = 0;
    const auto t0 = BenchClock::now();
    for (auto _ : state) {
        Study study(static_cast<int>(state.range(0)));
        whatif::PruneOutcome po = whatif::prunedIlpSweep(study, w, o);
        replays += po.exactReplays;
        benchmark::DoNotOptimize(po.cells.data());
    }
    const double wall = secondsSince(t0);
    state.counters["replays"] = static_cast<double>(
        state.iterations() > 0
            ? replays / static_cast<std::uint64_t>(state.iterations())
            : 0);
    recordRateSample(
        "BM_PrunedSweep/" + std::to_string(state.range(0)),
        "cells_per_s",
        wall > 0.0
            ? static_cast<double>(state.iterations()) * 8.0 / wall
            : 0.0,
        state);
}
BENCHMARK(BM_PrunedSweep)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

void
BM_ListScheduler(benchmark::State &state)
{
    const Workload &w = workloadByName("linpack");
    CompileOptions o = defaultCompileOptions(w);
    o.unroll.factor = 10; // big blocks stress the scheduler
    for (auto _ : state) {
        Module m = compileWorkload(w.source, idealSuperscalar(8), o);
        benchmark::DoNotOptimize(m.functions().size());
    }
}
BENCHMARK(BM_ListScheduler)->Unit(benchmark::kMillisecond);

} // namespace

// BENCHMARK_MAIN() expanded so the recorded samples can be flushed
// after every benchmark (and all its repetitions) has run: one
// bench-v2 datapoint per label per invocation of this binary.
int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (const char *path = bench::statsTrajectoryPath())
        bench::flushSamples("throughput", path);
    return 0;
}
