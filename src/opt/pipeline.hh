/**
 * @file
 * The whole optimizer, in two halves: allocateModule() applies the
 * cumulative Figure 4-8 levels and assigns registers, which depends
 * only on the options; scheduleModule() schedules the result for a
 * target machine.  Both optionally record per-phase telemetry (wall
 * time, IR deltas, spills, static schedule fill rate) for the
 * observability layer.
 */

#ifndef SUPERSYM_OPT_PIPELINE_HH
#define SUPERSYM_OPT_PIPELINE_HH

#include <string>
#include <vector>

#include "opt/passes.hh"
#include "support/stats.hh"

namespace ilp {

/** Aggregated record of one optimizer phase across all functions. */
struct PhaseStat
{
    std::string name;
    double wallMs = 0.0;
    /** Function-level invocations aggregated into this record. */
    std::uint64_t runs = 0;
    /** Instruction/block totals summed over runs, before and after. */
    std::uint64_t instrsBefore = 0;
    std::uint64_t instrsAfter = 0;
    std::uint64_t blocksBefore = 0;
    std::uint64_t blocksAfter = 0;
    /** Pass-reported change units (folds, hoists, spills, ...). */
    std::int64_t changed = 0;
};

/**
 * Everything the compile pipeline reports about one compilation.
 * Fill by passing a pointer to optimizeModule() or its two halves
 * (and, at the driver level, to compileWorkload()); costs nothing
 * when absent.
 */
struct CompileTelemetry
{
    std::vector<PhaseStat> phases;
    /** Virtual registers demoted to memory by assignRegisters. */
    std::uint64_t spills = 0;
    ScheduleStats sched;

    /** Find-or-append the aggregated record for `name`. */
    PhaseStat &phase(const std::string &name);

    double totalWallMs() const;

    /** Export into a stats group ("compile"). */
    void exportStats(stats::Group &g) const;
};

struct OptimizeOptions
{
    OptLevel level = OptLevel::RegAlloc;
    /** Temp/home register split (§3; Figure 4-8 uses 16/26). */
    RegFileLayout layout;
    /** Memory disambiguation given to the scheduler. */
    AliasLevel alias = AliasLevel::Conservative;
    /**
     * Careful-unrolling reassociation (§4.4).  Changes FP results by
     * design, so it is not part of any Figure 4-8 level.
     */
    bool reassociate = false;
};

/**
 * The machine-independent half of the pipeline: run the optimizer
 * levels and register allocation on every function of `module`, then
 * verify it.  Nothing here reads a machine description (the register
 * split is `options.layout`), so one result serves every machine the
 * module is later scheduled for.  `telemetry`, when non-null,
 * accumulates per-phase wall time and IR deltas.
 */
void allocateModule(Module &module, const OptimizeOptions &options,
                    CompileTelemetry *telemetry = nullptr);

/**
 * The machine half: validate `machine`, list-schedule every function
 * of an allocated module for it (at OptLevel >= Sched; only
 * `options.level` and `options.alias` are read), verify, and number
 * the static instructions.  After this the module is ready for
 * tracing/timing.  Telemetry gets the "sched" phase, last.
 */
void scheduleModule(Module &module, const MachineConfig &machine,
                    const OptimizeOptions &options,
                    CompileTelemetry *telemetry = nullptr);

/** allocateModule() then scheduleModule(): the whole optimizer. */
void optimizeModule(Module &module, const MachineConfig &machine,
                    const OptimizeOptions &options,
                    CompileTelemetry *telemetry = nullptr);

} // namespace ilp

#endif // SUPERSYM_OPT_PIPELINE_HH
