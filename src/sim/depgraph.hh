/**
 * @file
 * The dynamic dependence graph: analytic "what-if" timing over one
 * execution, without re-simulation.
 *
 * A machine sweep times one dynamic stream against many machine
 * configurations, paying the full issue-engine walk per config even
 * though the *dependences* in the stream never change.  DepGraph
 * factors that walk: one build pass over the stream resolves every
 * timing-relevant dependence into a fixed topology —
 *
 *  - true register dependences (last writer in program order; the
 *    engine's WAW-by-overwrite rule means output dependences never
 *    interlock, they only redirect who the last writer is),
 *  - memory dependences through actual word addresses (loads and
 *    stores wait for the completion of the latest earlier store to
 *    the same word — exactly the engine's store_ready_ rule),
 *  - branch fences (a Branch/Jump node fences every later node when
 *    the machine does not issue across branches).
 *
 * After the build, per-config questions are cheap array walks over
 * the node table (no hash lookups, no DynInstr unpacking, no virtual
 * sink dispatch):
 *
 *  - analyze(config): greedy in-order issue under (issueWidth,
 *    pipelineDegree, latency table, branch policy).  For machines
 *    without functional-unit class conflicts this reproduces the
 *    IssueEngine *exactly* (certified — asserted by differential
 *    tests across all benchmarks); with units it is a true lower
 *    bound, tightened by per-unit throughput bounds.
 *  - oracle critical path: the longest true-dependence chain,
 *    ignoring issue order and width — the paper's oracle ILP bound.
 *  - slack(config): earliest/latest issue times over the
 *    true-dependence DAG, per-node slack (>= 0; critical nodes have
 *    zero), aggregated per static instruction for "would speed up
 *    if" attribution, plus the hottest critical edges grouped by
 *    (producer pc, consumer pc).
 *
 * Latencies scale linearly with the pipeline degree (latencyMinor =
 * latencyBase * m), so oracle results in base cycles are independent
 * of m — the graph answers a whole (n, m) grid from one build.
 */

#ifndef SUPERSYM_SIM_DEPGRAPH_HH
#define SUPERSYM_SIM_DEPGRAPH_HH

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/machine/machine.hh"
#include "sim/trace.hh"

namespace ilp {

/** Node index into DepGraph::nodes(); kNoNode marks "no producer". */
using NodeIdx = std::uint32_t;
inline constexpr NodeIdx kNoNode =
    std::numeric_limits<NodeIdx>::max();

/**
 * One dynamic instruction, reduced to what timing depends on: its
 * class, its static pc (for attribution), and the producers it waits
 * for.  28 bytes; a graph costs ~1.4x the packed trace it came from.
 */
struct DepNode
{
    /** Producer nodes of register sources (kNoNode-padded).  The
     *  slot count mirrors DynInstr::srcs. */
    std::array<NodeIdx, 4> regPred{kNoNode, kNoNode, kNoNode,
                                   kNoNode};
    /** Latest earlier store to the same word (kNoNode if none or not
     *  a memory reference). */
    NodeIdx memPred = kNoNode;
    /** Static instruction id (kNoPc when never assigned). */
    Pc pc = kNoPc;
    InstrClass cls = InstrClass::IntAdd;
    /** Branch/Jump — fences later nodes on single-block-issue
     *  machines. */
    bool isFence = false;
};

static_assert(sizeof(DepNode) == 28, "DepNode layout drifted");

/** Per-machine-config analytic timing answers (see analyze()). */
struct AnalyticResult
{
    /** Greedy in-order schedule length in minor cycles (equals the
     *  IssueEngine's minorCycles() when `certified`). */
    std::uint64_t minorCycles = 0;
    /** minorCycles / m, the engine's reporting unit. */
    double baseCycles = 0.0;
    /** Dynamic instructions (graph nodes). */
    std::uint64_t instructions = 0;
    /** instructions / baseCycles (0 when the clock never advanced). */
    double ipc = 0.0;

    /** True when the analytic schedule provably equals the
     *  cycle-accurate engine: the config has no functional-unit
     *  class conflicts (everything else — width, degree, latencies,
     *  memory, fences — is modeled exactly). */
    bool certified = false;

    /** Oracle critical path (true dependences only, infinite width,
     *  any order) in minor cycles, and the oracle ILP bound
     *  instructions / (criticalPathMinor / m). */
    std::uint64_t criticalPathMinor = 0;
    double oracleIlp = 0.0;

    /** Issue-bandwidth lower bound in minor cycles:
     *  floor((N-1)/width) + the last node's latency. */
    std::uint64_t issueBoundMinor = 0;
    /** Strongest per-functional-unit throughput lower bound in minor
     *  cycles (0 when the config has no units). */
    std::uint64_t unitBoundMinor = 0;
};

/** Per-static-instruction slack rollup (see SlackReport). */
struct PcSlack
{
    /** Dynamic instances of this pc. */
    std::uint64_t dynCount = 0;
    /** Instances on a critical path (zero slack). */
    std::uint64_t critCount = 0;
    /** Sum of critical instances' latencies (minor cycles) — this
     *  pc's direct contribution to the critical path. */
    std::uint64_t critLatencyMinor = 0;
    /** Smallest slack of any instance, in minor cycles. */
    std::uint64_t minSlackMinor =
        std::numeric_limits<std::uint64_t>::max();
};

/** A group of same-(producer pc, consumer pc) critical edges. */
struct CriticalEdge
{
    Pc fromPc = kNoPc;
    Pc toPc = kNoPc;
    /** Dynamic critical edges in the group. */
    std::uint64_t count = 0;
    /** Total latency carried across the group (minor cycles). */
    std::uint64_t latencyMinor = 0;
    /** true = memory dependence, false = register dependence. */
    bool memory = false;
};

/**
 * Slack analysis of the true-dependence DAG under one config's
 * latencies: how far each dynamic instruction sits from the critical
 * path, rolled up per static instruction.
 */
struct SlackReport
{
    /** Oracle critical path in minor cycles (the schedule length the
     *  slack is measured against). */
    std::uint64_t criticalPathMinor = 0;
    /** Rollup rows indexed by pc; the last row is the unattributed
     *  (pc == kNoPc) bucket, mirroring PcCounters. */
    std::vector<PcSlack> perPc;
    /** Critical-path edge groups, hottest (by latency) first. */
    std::vector<CriticalEdge> topEdges;
};

/**
 * The dependence graph of one execution.  Immutable after build;
 * every query is const and safe to run concurrently.
 */
class DepGraph
{
  public:
    /**
     * Streaming builder: a TraceSink that constructs the graph
     * directly from an executor's dynamic stream.  Defined after the
     * class (it holds a DepGraph by value).
     */
    class Builder;

    std::size_t size() const { return nodes_.size(); }
    bool empty() const { return nodes_.empty(); }
    const std::vector<DepNode> &nodes() const { return nodes_; }

    /** Bytes of node storage (for cache budgeting). */
    std::size_t byteSize() const
    {
        return nodes_.size() * sizeof(DepNode);
    }

    /** Static instruction count implied by the nodes: max pc + 1
     *  over attributed nodes (0 when none carry a pc). */
    Pc pcCount() const { return pc_count_; }

    /** FNV-1a digest over the full node table — build determinism
     *  fingerprint (identical across job counts and backends). */
    std::uint64_t structureHash() const;

    /**
     * Analytic timing of the recorded execution on `config`: greedy
     * in-order issue over the graph plus the oracle / bandwidth /
     * unit bounds.  O(nodes) with array-only inner loop.
     */
    AnalyticResult analyze(const MachineConfig &config) const;

    /**
     * Slack analysis under `config`'s latency table (forward +
     * backward pass over the true-dependence DAG).  `topK` bounds
     * the returned critical-edge groups.
     */
    SlackReport slack(const MachineConfig &config,
                      std::size_t topK = 16) const;

  private:
    std::vector<DepNode> nodes_;
    Pc pc_count_ = 0;
};

class DepGraph::Builder : public TraceSink
{
  public:
    void emit(const DynInstr &di) override;
    /** Move the finished graph out (the builder is then spent). */
    DepGraph take();

  private:
    DepGraph graph_;
    /** Last writer per register (build-time scratch). */
    std::vector<NodeIdx> last_writer_;
    /** Last store per word address (build-time scratch). */
    std::unordered_map<std::int64_t, NodeIdx> last_store_;
};

} // namespace ilp

#endif // SUPERSYM_SIM_DEPGRAPH_HH
