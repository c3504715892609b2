/**
 * @file
 * Experiment harness shared by the bench binaries: speedups relative
 * to the base machine, per-benchmark sweeps, and harmonic-mean suite
 * aggregation (§4.3 plots "the harmonic mean of all eight
 * benchmarks").
 *
 * Every point reschedules the workload *for the machine being
 * evaluated* (the paper's system recompiles per machine
 * specification) — but compilations are shared through a
 * CompileCache, so two machines the compiler cannot tell apart reuse
 * one Module; timings go through a TraceCache keyed by the same
 * compile key, which times a key's first use live and records a
 * trace only when the key is timed again, replaying it from then on
 * (live first, record on reuse: a recording costs ~41 ns per dynamic
 * instruction against ~26 ns live and ~20.5 ns per replay); and
 * base-machine reference cycles are memoized per compile
 * configuration.
 *
 * A Study is safe to use from many threads at once: the compile
 * cache, the trace cache and the base-cycle memo are all future-based
 * (one producer per key, everyone else blocks on the result), and
 * each timing evaluation runs in its own IssueEngine over the shared
 * immutable Module/trace.  harmonicSpeedup fans the eight benchmarks
 * out across the study's own SweepRunner.
 */

#ifndef SUPERSYM_CORE_STUDY_EXPERIMENT_HH
#define SUPERSYM_CORE_STUDY_EXPERIMENT_HH

#include <future>
#include <map>
#include <mutex>
#include <string>

#include "core/study/profile.hh"
#include "core/study/sweep.hh"
#include "core/study/tracecache.hh"
#include "core/study/whatif.hh"

namespace ilp {

class Study
{
  public:
    /** @param jobs Worker count for suite-level fan-out; <= 0
     *  resolves via defaultSweepJobs() (SSIM_JOBS, then hardware). */
    explicit Study(int jobs = 0) : runner_(jobs) {}

    /**
     * Base-machine elapsed cycles for a workload under a compile
     * configuration (memoized).  With unit latencies this equals the
     * dynamic instruction count — §2.1's stall-free base machine.
     */
    double baseCycles(const Workload &workload,
                      const CompileOptions &options);

    /**
     * Speedup of `machine` over the base machine (§4's "relative
     * performance"), compiling/scheduling the workload for each
     * machine respectively.
     */
    double speedup(const Workload &workload,
                   const MachineConfig &machine,
                   const CompileOptions &options);

    /** speedup() with each workload's default options. */
    double speedup(const Workload &workload,
                   const MachineConfig &machine);

    /**
     * Compile (via the compile cache) and time `workload` on
     * `machine` through the trace cache (live on the compile key's
     * first timing, recorded and replayed after) — the study-level
     * equivalent of runWorkload(), byte-identical to it whether the
     * caches hit, miss, or are disabled.  Non-replayable recordings
     * (trapped runs, traces over budget) fall back to live timing
     * transparently; a trapped run surfaces through RunOutcome::trap
     * exactly as on the live path.
     */
    RunOutcome timedRun(const Workload &workload,
                        const MachineConfig &machine,
                        const CompileOptions &options,
                        const RunTelemetryOptions &telemetry = {});

    /**
     * timedRun() with the cycle profiler enabled, assembled into a
     * prof::Profile (per-pc counters mapped back onto the compiled
     * code).  Deterministic: byte-identical whether the run was live
     * or trace-replayed, and independent of the study's job count.
     * Throws TrapException when the workload faults — a profile of a
     * partial run would not reconcile.
     */
    prof::Profile profiledRun(const Workload &workload,
                              const MachineConfig &machine,
                              const CompileOptions &options);

    /** Harmonic mean of speedup() across the whole suite, evaluated
     *  benchmark-parallel on the study's worker pool. */
    double harmonicSpeedup(const MachineConfig &machine);

    /**
     * Available parallelism of one workload at a compile
     * configuration: speedup on an ideal superscalar machine of
     * `degree`, unit latencies (§4: "the available parallelism must
     * be divided by the average operation latency" — unit latencies
     * make speedup and parallelism coincide).
     */
    double availableParallelism(const Workload &workload,
                                const CompileOptions &options,
                                int degree = 8);

    /** The worker pool (for callers fanning out their own cells). */
    const SweepRunner &runner() const { return runner_; }

    /** Shared compilations (for hit accounting and stats export). */
    CompileCache &compileCache() { return cache_; }
    const CompileCache &compileCache() const { return cache_; }

    /** Shared recorded executions (budget control, hit accounting
     *  and stats export). */
    TraceCache &traceCache() { return trace_cache_; }
    const TraceCache &traceCache() const { return trace_cache_; }

    /**
     * The dynamic dependence graph of `workload` compiled for
     * `machine`, cached per compile key and streamed straight out of
     * live execution (no trace is recorded for it).  Throws
     * TrapException when the workload faults.
     */
    std::shared_ptr<const DepGraph>
    dependenceGraph(const Workload &workload,
                    const MachineConfig &machine,
                    const CompileOptions &options);

    /** Shared dependence graphs (hit accounting, stats export). */
    DepGraphCache &graphCache() { return graph_cache_; }
    const DepGraphCache &graphCache() const { return graph_cache_; }

    /** Stable identity of a (workload, compile options) pair: keys
     *  the base-cycles memo and fingerprints sweep journals. */
    static std::string fingerprint(const Workload &workload,
                                   const CompileOptions &options);

  private:
    SweepRunner runner_;
    CompileCache cache_;
    TraceCache trace_cache_;
    DepGraphCache graph_cache_;
    std::mutex base_mu_;
    std::map<std::string, std::shared_future<double>> base_cycles_;
};

} // namespace ilp

#endif // SUPERSYM_CORE_STUDY_EXPERIMENT_HH
