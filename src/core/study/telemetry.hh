/**
 * @file
 * Structured run telemetry writers: Chrome tracing JSON from
 * flight-recorder spans and the issue timeline, the sweep metrics
 * export, and helpers for landing a StatsSnapshot on disk.  Load
 * --trace-events output in chrome://tracing or
 * https://ui.perfetto.dev.
 */

#ifndef SUPERSYM_CORE_STUDY_TELEMETRY_HH
#define SUPERSYM_CORE_STUDY_TELEMETRY_HH

#include <string>

#include "core/study/driver.hh"
#include "support/json.hh"
#include "support/metrics.hh"
#include "support/trace.hh"

namespace ilp {

class Study;
struct HardeningTotals;

/**
 * Build a Chrome tracing document ({"traceEvents": [...]}) from one
 * run.  `recording` is the flight-recorder session around the run's
 * compile and execution: its spans (frontend stages, optimizer
 * phases, bytecode lowering, the run) become complete ("ph":"X")
 * events on pid 1, exactly as buildSweepTraceEvents renders them;
 * issue events become per-slot events on pid 2, one tid per issue
 * slot, with one simulated minor cycle mapped to one microsecond of
 * trace time.
 */
Json buildTraceEvents(const RunOutcome &outcome,
                      const MachineConfig &machine,
                      const trace::Recording &recording);

/**
 * Build a Chrome tracing document from a whole-sweep flight-recorder
 * session: one pid ("sweep"), one named tid per worker thread, and a
 * complete event per recorded span (compile phases, functional
 * executions, timing replays, cache waits, cells) with the span's
 * dynamic detail (cell index, workload, E-code) under args.
 */
Json buildSweepTraceEvents(const trace::Recording &recording,
                           const MachineConfig &machine);

/**
 * The runtime metrics of one sweep, read from the owner of each
 * event: the study's compile- and trace-cache counters, the hardened
 * sweep's `totals`, fault::injectedCount(), the counters of
 * metrics::Registry::global(), and — for every ssim_*_seconds
 * summary and the cell count — the spans of `recording`, the
 * flight-recorder session that covered the sweep.
 */
metrics::Snapshot sweepMetrics(const Study &study,
                               const HardeningTotals &totals,
                               const trace::Recording &recording);

/**
 * Write a JSON document to `path` (SS_FATAL on I/O failure).
 * Crash-safe: the document lands in a sibling temp file first and is
 * renamed into place, so a reader (or a killed writer) never sees a
 * partial document at `path`.
 */
void writeJsonFile(const std::string &path, const Json &doc);

} // namespace ilp

#endif // SUPERSYM_CORE_STUDY_TELEMETRY_HH
