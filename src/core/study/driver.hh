/**
 * @file
 * The machine evaluation environment of Section 3, end to end: "the
 * language system then optimizes the code, allocates registers, and
 * schedules the instructions for the pipeline, all according to this
 * specification.  The simulator executes the program according to the
 * same specification."
 *
 * compileWorkload() runs source -> (unroll) -> IR -> optimizer ->
 * register allocation (compilePrefixChecked, which no machine
 * parameter reaches) -> machine-specific scheduling (scheduleModule);
 * runOnMachine()
 * then executes the result functionally while the in-order issue
 * engine times the dynamic stream against the *same* machine
 * description.
 *
 * The dynamic stream depends only on the compiled Module, so
 * runOnMachine() also factors into executeWorkload() (functional
 * execution recorded into an immutable TraceArtifact) and
 * timeTrace() (timing, pure over the artifact).  Recording costs
 * ~41 ns per dynamic instruction against ~26 ns for a fused live
 * run and ~20.5 ns for a replay, so the study times live first and
 * records on reuse (TraceCache::timedRun): runOnMachine() is the
 * path of a compile key's first timing, of single runs and of
 * artifacts that cannot be replayed.
 */

#ifndef SUPERSYM_CORE_STUDY_DRIVER_HH
#define SUPERSYM_CORE_STUDY_DRIVER_HH

#include <string>

#include "core/machine/machine.hh"
#include "frontend/compile.hh"
#include "opt/pipeline.hh"
#include "sim/cache.hh"
#include "sim/interp.hh"
#include "sim/issue.hh"
#include "sim/ptrace.hh"
#include "support/stats.hh"
#include "workloads/workloads.hh"

namespace ilp {

struct CompileOptions
{
    OptLevel level = OptLevel::RegAlloc;
    UnrollOptions unroll;
    AliasLevel alias = AliasLevel::Conservative;
    RegFileLayout layout;
};

/** The paper's default measurement configuration (§4 headline runs):
 *  full optimization, 16 temps / 26 homes, array-symbol memory
 *  disambiguation, the workload's own default unroll factor. */
CompileOptions defaultCompileOptions(const Workload &workload);

/** The optimizer settings a compile with `options` runs. */
OptimizeOptions optimizeOptions(const CompileOptions &options);

/** The machine-independent prefix of a compile: parse, unroll,
 *  optimize and allocate registers (allocateModule), reporting user
 *  errors (syntax, semantic, register-file limit) as diagnostics
 *  instead of exiting.  The module is not yet scheduled or numbered;
 *  scheduleModule() finishes a copy of it for each machine.
 *  `telemetry`, when non-null, records the frontend phase plus every
 *  optimizer phase up to "regalloc". */
Result<Module> compilePrefixChecked(const std::string &source,
                                    const CompileOptions &options,
                                    CompileTelemetry *telemetry =
                                        nullptr,
                                    const std::string &unit =
                                        "<input>");

/** Compile MT source for a machine: compilePrefixChecked() then
 *  scheduleModule().  `telemetry`, when non-null, records the
 *  frontend phase plus every optimizer phase, "sched" last. */
Result<Module> compileWorkloadChecked(const std::string &source,
                                      const MachineConfig &machine,
                                      const CompileOptions &options,
                                      CompileTelemetry *telemetry =
                                          nullptr,
                                      const std::string &unit =
                                          "<input>");

/** Compile MT source for a machine; errors are fatal().  Thin
 *  wrapper over compileWorkloadChecked() for the CLI edge. */
Module compileWorkload(const std::string &source,
                       const MachineConfig &machine,
                       const CompileOptions &options,
                       CompileTelemetry *telemetry = nullptr);

/** What a run should observe about itself, beyond the headline
 *  numbers.  The default collects nothing and costs nothing. */
struct RunTelemetryOptions
{
    /** Build a full StatsSnapshot (issue, cache, mix, compile). */
    bool collectStats = false;
    /** Max issue-timeline events captured for --trace-events
     *  (0 disables capture). */
    std::size_t timelineLimit = 0;
    /** Collect per-static-instruction timing counters (the cycle
     *  profiler).  Off by default; the engine's emit path then pays
     *  only one predictable branch. */
    bool collectProfile = false;
    /** Data-cache model attached when collecting stats. */
    CacheConfig cache;
};

/** Everything a timing run produces. */
struct RunOutcome
{
    /** main()'s checksum. */
    std::int64_t checksum = 0;
    /** Bit pattern of the `result_fp` global after the run (0 if the
     *  program has no such global). */
    double fpChecksum = 0.0;
    /** Dynamic instructions executed. */
    std::uint64_t instructions = 0;
    /** Elapsed time in base cycles on the machine. */
    double cycles = 0.0;

    /** Full stats tree (empty unless collectStats). */
    stats::StatsSnapshot stats;
    /** Issue timeline (empty unless timelineLimit > 0). */
    std::vector<IssueEvent> issueTimeline;
    std::uint64_t timelineDropped = 0;
    /** Per-pc timing counters (empty unless collectProfile); the
     *  last record is the unattributed (pc == kNoPc) bucket. */
    std::vector<PcCounters> pcCounters;
    /** Aggregate engine counters the per-pc records must reconcile
     *  with exactly (filled with pcCounters when collectProfile). */
    StallBreakdown stalls;
    std::uint64_t issueSlotsTotal = 0;
    /** Compile telemetry (filled by runWorkload with collectStats). */
    CompileTelemetry compile;
    /** Set when the workload faulted mid-run; checksum is then
     *  meaningless and cycles/instructions count up to the fault. */
    Trap trap;

    bool trapped() const { return trap.valid(); }

    /** Instructions per base cycle (the exploited parallelism).
     *  A run that never advanced the clock (cycles == 0) reports 0
     *  rather than inf/NaN, so downstream JSON stays finite. */
    double ipc() const
    {
        return cycles > 0.0 ? instructions / cycles : 0.0;
    }
};

/** Execute an already-compiled module against a machine.  `compile`
 *  telemetry, when given, is folded into the snapshot and outcome. */
RunOutcome runOnMachine(const Module &module,
                        const MachineConfig &machine,
                        const RunTelemetryOptions &telemetry = {},
                        const CompileTelemetry *compile = nullptr);

/** One functional execution, frozen.  The dynamic stream depends only
 *  on the compiled Module, so one artifact can be timed against any
 *  number of machines (timeTrace) without re-executing. */
struct TraceArtifact
{
    /** The packed dynamic stream (empty unless replayable). */
    PackedTrace trace;
    /** Functional results: return value, instruction count, class
     *  mix, trap — exactly what Interpreter::run reported. */
    RunResult result;
    /** Bit pattern of `result_fp` after the run (valid only when
     *  hasFpChecksum; absent globals and trapped runs leave it 0). */
    std::uint64_t fpChecksumBits = 0;
    bool hasFpChecksum = false;
    /** True when the trace covers the whole run losslessly and the
     *  run did not trap; otherwise consumers must fall back to live
     *  interpretation (runOnMachine). */
    bool replayable = false;
    /** Static instruction count of the executed module (sizes the
     *  replay-side profiler exactly like the live path). */
    Pc pcCount = 0;

    /** Trace storage held (the unit the TraceCache budgets). */
    std::size_t byteSize() const { return trace.byteSize(); }
};

/** Recording half: run the module functionally, recording the
 *  packed trace (up to `maxTraceBytes`) and functional results.
 *  Never throws for workload faults — a trapped run yields a
 *  non-replayable artifact carrying the trap. */
TraceArtifact executeWorkload(const Module &module,
                              std::size_t maxTraceBytes =
                                  static_cast<std::size_t>(-1));

/** Replay half: time a replayable artifact on a machine.  Pure
 *  over the artifact (safe to call concurrently on one artifact) and
 *  produces a RunOutcome byte-identical to runOnMachine() on the
 *  same module/machine/telemetry. */
RunOutcome timeTrace(const TraceArtifact &artifact,
                     const MachineConfig &machine,
                     const RunTelemetryOptions &telemetry = {},
                     const CompileTelemetry *compile = nullptr);

/** compileWorkload + runOnMachine in one step. */
RunOutcome runWorkload(const Workload &workload,
                       const MachineConfig &machine,
                       const CompileOptions &options,
                       const RunTelemetryOptions &telemetry = {});

/** Dynamic class frequencies of a workload (for Table 2-1). */
ClassFrequencies profileWorkload(const Workload &workload,
                                 const CompileOptions &options);

} // namespace ilp

#endif // SUPERSYM_CORE_STUDY_DRIVER_HH
