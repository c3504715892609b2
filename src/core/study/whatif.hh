/**
 * @file
 * The "what-if" layer: dependence-graph analytics wired into the
 * study harness.
 *
 * Three consumers share one DepGraph per compiled module (cached,
 * future-based, keyed by CompileCache::key exactly like the trace
 * cache):
 *
 *  - `ssim whatif` — single-config questions: oracle critical path
 *    and ILP bound, analytic cycles for a machine, top critical-path
 *    dependence edges attributed back to MT source lines.
 *  - `ssim profile --slack` — per-line slack / "would speed up if"
 *    attribution interleaved with the profiler's code map.
 *  - `ssim ilp --prune-analytic` — the prune-then-confirm sweep:
 *    cells whose machine the analytic engine models exactly
 *    (certified: no functional-unit class conflicts) take their
 *    cycles from the graph; the extreme cells of the predicted
 *    ranking plus every non-certified cell are confirmed by exact
 *    timeTrace replay, and the prediction error against those
 *    confirmations is reported in the sweep's JSON meta.  Because
 *    certified predictions equal the issue engine cycle-for-cycle,
 *    the final table is byte-identical to the unpruned sweep while
 *    running a fraction of the exact replays.
 */

#ifndef SUPERSYM_CORE_STUDY_WHATIF_HH
#define SUPERSYM_CORE_STUDY_WHATIF_HH

#include <atomic>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/study/profile.hh"
#include "sim/depgraph.hh"
#include "support/json.hh"

namespace ilp {

class Study;

/**
 * Concurrency-safe cache of dependence graphs, keyed by compile key
 * (one graph per distinct compiled module, shared by every config
 * that compiles identically).  Future-based like CompileCache /
 * TraceCache: the first requester builds, everyone else parks on the
 * shared future.  Graphs are ~1.4x the packed trace; entries stay
 * for the study's lifetime (a sweep touches every one repeatedly).
 */
class DepGraphCache
{
  public:
    using Graph = std::shared_ptr<const DepGraph>;

    /** The graph for `key`, building it via `build` on first use. */
    Graph get(const std::string &key,
              const std::function<DepGraph()> &build);

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    /** Graphs built successfully (a failed build is a miss only). */
    std::uint64_t builds() const { return builds_.load(); }
    std::size_t size() const;
    /** Node-storage bytes across resident graphs. */
    std::size_t bytesHeld() const;

    void exportStats(stats::Group &g) const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::shared_future<Graph>> entries_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> builds_{0};
};

namespace whatif {

/** A critical dependence edge mapped back onto the program. */
struct EdgeRow
{
    CriticalEdge edge;
    /** Source lines of producer/consumer (0 = unknown). */
    int fromLine = 0;
    int toLine = 0;
    /** Printer form of the two scheduled instructions. */
    std::string fromText;
    std::string toText;
};

/** Everything `ssim whatif` reports for one workload + machine. */
struct Report
{
    std::string workload;
    std::string machineName;
    std::uint64_t machineHash = 0;
    int issueWidth = 1;
    int pipelineDegree = 1;

    /** Analytic timing + bounds for the machine. */
    AnalyticResult analytic;
    /** Slack analysis under the machine's latency table. */
    SlackReport slack;
    /** slack.topEdges with source attribution. */
    std::vector<EdgeRow> edges;

    /** Graph fingerprint (deterministic across jobs/build paths). */
    std::uint64_t structureHash = 0;
    std::uint64_t graphNodes = 0;
};

/**
 * Build (or fetch) the dependence graph for `workload` compiled for
 * `machine` and answer the what-if queries.  Throws TrapException
 * when the workload faults (a graph of a partial run would bound
 * nothing), DiagException on compile errors.
 */
Report analyze(Study &study, const Workload &workload,
               const MachineConfig &machine,
               const CompileOptions &options, std::size_t topEdges);

/** Human-readable report (ssim whatif's stdout). */
std::string render(const Report &r);

/** Machine-readable form (schema: whatif-v1). */
Json toJson(const Report &r);

/**
 * Per-line slack listing for `ssim profile --slack`: the profiler's
 * line rollup joined with the graph's slack rollup — which lines sit
 * on the oracle critical path (zero slack, "speeding this up speeds
 * the program up") and which have room.  Deterministic; reuses the
 * profile's code map, so lines match the annotated listing.
 */
std::string renderSlackListing(const prof::Profile &profile,
                               const SlackReport &slack,
                               const std::string &source,
                               std::size_t topN);

/** One cell of a pruned sweep. */
struct PruneCell
{
    /** Final cycles for the cell (analytic when certified and not
     *  confirmed; exact otherwise — equal for certified cells). */
    double cycles = 0.0;
    /** Speedup over the base machine (base / cycles). */
    double speedup = 0.0;
    bool certified = false;
    /** Cell was confirmed by an exact replay. */
    bool confirmed = false;
    /** |analytic - exact| / exact cycles; 0 unless confirmed. */
    double error = 0.0;
};

/** A pruned sweep plus its accounting (for the JSON meta and the
 *  check.sh replay-reduction assertion). */
struct PruneOutcome
{
    std::vector<PruneCell> cells;
    /** Exact timing replays this sweep ran (confirmations + the one
     *  base-machine reference run). */
    std::uint64_t exactReplays = 0;
    /** What the unpruned sweep would have run (cells + base). */
    std::uint64_t exactReplaysUnpruned = 0;
    double maxError = 0.0;
    double meanError = 0.0;
};

/**
 * Prune-then-confirm ideal-superscalar sweep over degrees 1..degrees
 * (the `ssim ilp` grid, one row of figure 4-1): analytic prediction
 * per degree (cells fan out on the study's worker pool), exact
 * confirmation of the extreme cells of the predicted ranking, final
 * speedups byte-identical to the unpruned sweep.  Throws on compile
 * errors or traps (callers wanting fault isolation wrap cells via
 * SweepRunner::mapChecked themselves).
 */
PruneOutcome prunedIlpSweep(Study &study, const Workload &workload,
                            const CompileOptions &options,
                            int degrees = 8);

/** The prune accounting as a JSON object (sweep meta.prune). */
Json pruneMeta(const PruneOutcome &o);

} // namespace whatif
} // namespace ilp

#endif // SUPERSYM_CORE_STUDY_WHATIF_HH
