#include "sim/depgraph.hh"

#include <algorithm>
#include <cstring>

#include "support/logging.hh"

namespace ilp {

// ------------------------------------------------------------ build

void
DepGraph::Builder::emit(const DynInstr &di)
{
    const NodeIdx me =
        static_cast<NodeIdx>(graph_.nodes_.size());
    SS_ASSERT(me != kNoNode, "dependence graph node index overflow");

    DepNode node;
    node.cls = di.cls();
    node.pc = di.pc;
    node.isFence = node.cls == InstrClass::Branch ||
                   node.cls == InstrClass::Jump;

    // True register dependences: the last writer in program order.
    // Mirrors IssueEngine::regReady — a source never written reads
    // the initial state (no producer, ready at 0); WAW resolves by
    // overwrite below, never by interlock.
    for (std::uint8_t i = 0; i < di.numSrcs; ++i) {
        const Reg r = di.srcs[i];
        if (r < last_writer_.size())
            node.regPred[i] = last_writer_[r];
    }

    // Memory dependence through the actual address: loads and stores
    // both wait for the latest earlier store to the same word
    // (IssueEngine::store_ready_ semantics).
    if (di.addr >= 0) {
        auto it = last_store_.find(di.addr);
        if (it != last_store_.end())
            node.memPred = it->second;
    }

    graph_.nodes_.push_back(node);

    if (di.dst != kNoReg) {
        if (di.dst >= last_writer_.size())
            last_writer_.resize(
                static_cast<std::size_t>(di.dst) + 1, kNoNode);
        last_writer_[di.dst] = me;
    }
    if (di.addr >= 0 && isStore(di.op))
        last_store_[di.addr] = me;
    if (di.pc != kNoPc && di.pc >= graph_.pc_count_)
        graph_.pc_count_ = di.pc + 1;
}

DepGraph
DepGraph::Builder::take()
{
    last_writer_.clear();
    last_writer_.shrink_to_fit();
    last_store_.clear();
    return std::move(graph_);
}

std::uint64_t
DepGraph::structureHash() const
{
    // FNV-1a over the semantic fields only (padding excluded so the
    // digest is a property of the graph, not the allocator).
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(nodes_.size());
    for (const DepNode &n : nodes_) {
        for (NodeIdx p : n.regPred)
            mix(p);
        mix(n.memPred);
        mix(n.pc);
        mix(static_cast<std::uint64_t>(n.cls) << 1 |
            (n.isFence ? 1 : 0));
    }
    return h;
}

// ---------------------------------------------------------- analyze

AnalyticResult
DepGraph::analyze(const MachineConfig &config) const
{
    AnalyticResult r;
    r.instructions = nodes_.size();
    r.certified = config.units.empty();
    if (nodes_.empty())
        return r;

    const std::uint64_t width =
        static_cast<std::uint64_t>(config.issueWidth);
    const bool fencing = !config.issueAcrossBranches;

    // Minor-cycle latency per class, resolved once.
    std::array<std::uint64_t, kNumInstrClasses> lat{};
    for (std::size_t c = 0; c < kNumInstrClasses; ++c)
        lat[c] = static_cast<std::uint64_t>(
            config.latencyMinor(static_cast<InstrClass>(c)));

    // Completion times of the greedy in-order schedule (reused below
    // for the oracle pass).
    std::vector<std::uint64_t> comp(nodes_.size());

    // Greedy in-order walk — the IssueEngine's issue rule with the
    // functional-unit constraint dropped.  Identical state machine
    // (cur_cycle / cur_count / fence), so for unit-less configs the
    // result is the engine's, cycle for cycle.
    std::uint64_t cur_cycle = 0, fence = 0, last_complete = 0;
    std::uint64_t cur_count = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const DepNode &n = nodes_[i];
        std::uint64_t t_data = 0;
        for (NodeIdx p : n.regPred) {
            if (p != kNoNode)
                t_data = std::max(t_data, comp[p]);
        }
        if (n.memPred != kNoNode)
            t_data = std::max(t_data, comp[n.memPred]);

        std::uint64_t t =
            std::max(std::max(cur_cycle, fence), t_data);
        if (t > cur_cycle) {
            cur_cycle = t;
            cur_count = 0;
        } else if (cur_count >= width) {
            t = ++cur_cycle;
            cur_count = 0;
        }
        ++cur_count;

        const std::uint64_t done =
            t + lat[static_cast<std::size_t>(n.cls)];
        comp[i] = done;
        last_complete = std::max(last_complete, done);
        if (fencing && n.isFence)
            fence = t + 1;
    }

    // Issue-bandwidth bound: the last record issues no earlier than
    // cycle floor((N-1)/width) and still pays its own latency.
    r.issueBoundMinor =
        (static_cast<std::uint64_t>(nodes_.size()) - 1) / width +
        lat[static_cast<std::size_t>(nodes_.back().cls)];

    // Per-unit throughput bound: some copy of unit u handles at least
    // ceil(C_u / multiplicity) operations, spaced issueLatency apart,
    // and the last one still pays the cheapest served latency.
    if (!config.units.empty()) {
        std::array<std::uint64_t, kNumInstrClasses> clsCount{};
        for (const DepNode &n : nodes_)
            ++clsCount[static_cast<std::size_t>(n.cls)];
        for (const FuncUnit &u : config.units) {
            std::uint64_t served = 0;
            std::uint64_t minLat =
                std::numeric_limits<std::uint64_t>::max();
            for (InstrClass c : u.classes) {
                const std::size_t ci = static_cast<std::size_t>(c);
                if (clsCount[ci] == 0)
                    continue;
                served += clsCount[ci];
                minLat = std::min(minLat, lat[ci]);
            }
            if (served == 0)
                continue;
            const std::uint64_t mult =
                static_cast<std::uint64_t>(u.multiplicity);
            const std::uint64_t perCopy =
                (served + mult - 1) / mult;
            r.unitBoundMinor = std::max(
                r.unitBoundMinor,
                (perCopy - 1) *
                        static_cast<std::uint64_t>(u.issueLatency) +
                    minLat);
        }
    }

    r.minorCycles = std::max(last_complete, r.unitBoundMinor);
    r.baseCycles =
        static_cast<double>(r.minorCycles) /
        static_cast<double>(config.pipelineDegree);
    r.ipc = r.minorCycles > 0
                ? static_cast<double>(r.instructions) / r.baseCycles
                : 0.0;

    // Oracle: true dependences only — no issue order, no width, no
    // fences.  The longest dataflow chain any machine must respect.
    std::uint64_t oracle_cp = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const DepNode &n = nodes_[i];
        std::uint64_t e = 0;
        for (NodeIdx p : n.regPred) {
            if (p != kNoNode)
                e = std::max(e, comp[p]);
        }
        if (n.memPred != kNoNode)
            e = std::max(e, comp[n.memPred]);
        comp[i] = e + lat[static_cast<std::size_t>(n.cls)];
        oracle_cp = std::max(oracle_cp, comp[i]);
    }
    r.criticalPathMinor = oracle_cp;
    r.oracleIlp =
        oracle_cp > 0
            ? static_cast<double>(r.instructions) *
                  static_cast<double>(config.pipelineDegree) /
                  static_cast<double>(oracle_cp)
            : 0.0;
    return r;
}

// ------------------------------------------------------------ slack

SlackReport
DepGraph::slack(const MachineConfig &config, std::size_t topK) const
{
    SlackReport rep;
    rep.perPc.assign(static_cast<std::size_t>(pc_count_) + 1,
                     PcSlack{});
    if (nodes_.empty())
        return rep;

    std::array<std::uint64_t, kNumInstrClasses> lat{};
    for (std::size_t c = 0; c < kNumInstrClasses; ++c)
        lat[c] = static_cast<std::uint64_t>(
            config.latencyMinor(static_cast<InstrClass>(c)));

    // Forward pass over the true-dependence DAG: earliest issue e[i]
    // and the critical-path length T the slack is measured against.
    std::vector<std::uint64_t> earliest(nodes_.size());
    std::uint64_t T = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const DepNode &n = nodes_[i];
        std::uint64_t e = 0;
        for (NodeIdx p : n.regPred) {
            if (p != kNoNode)
                e = std::max(
                    e, earliest[p] +
                           lat[static_cast<std::size_t>(
                               nodes_[p].cls)]);
        }
        if (n.memPred != kNoNode)
            e = std::max(
                e, earliest[n.memPred] +
                       lat[static_cast<std::size_t>(
                           nodes_[n.memPred].cls)]);
        earliest[i] = e;
        T = std::max(T, e + lat[static_cast<std::size_t>(n.cls)]);
    }
    rep.criticalPathMinor = T;

    // Backward pass in reverse program order (a valid reverse
    // topological order: every edge points backwards): latest issue
    // l[i] that still meets T, relaxed into each producer.
    std::vector<std::uint64_t> latest(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        latest[i] = T - lat[static_cast<std::size_t>(nodes_[i].cls)];
    for (std::size_t i = nodes_.size(); i-- > 0;) {
        const DepNode &n = nodes_[i];
        const std::uint64_t need = latest[i];
        for (NodeIdx p : n.regPred) {
            if (p == kNoNode)
                continue;
            const std::uint64_t lp =
                need -
                lat[static_cast<std::size_t>(nodes_[p].cls)];
            latest[p] = std::min(latest[p], lp);
        }
        if (n.memPred != kNoNode) {
            const std::uint64_t lp =
                need - lat[static_cast<std::size_t>(
                           nodes_[n.memPred].cls)];
            latest[n.memPred] = std::min(latest[n.memPred], lp);
        }
    }

    // Per-pc rollup + critical-edge grouping.  An edge p -> i is
    // critical when its slack l[i] - e[p] - lat[p] is zero, i.e. it
    // lies on some longest path.
    struct EdgeAcc
    {
        std::uint64_t count = 0;
        std::uint64_t latency = 0;
    };
    std::unordered_map<std::uint64_t, EdgeAcc> regEdges, memEdges;
    auto edgeKey = [](Pc from, Pc to) {
        return static_cast<std::uint64_t>(from) << 32 |
               static_cast<std::uint64_t>(to);
    };

    const std::size_t unattributed = rep.perPc.size() - 1;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const DepNode &n = nodes_[i];
        SS_ASSERT(latest[i] >= earliest[i],
                  "negative slack: backward pass inconsistent");
        const std::uint64_t s = latest[i] - earliest[i];
        const std::size_t row =
            n.pc < pc_count_ ? static_cast<std::size_t>(n.pc)
                             : unattributed;
        PcSlack &ps = rep.perPc[row];
        ++ps.dynCount;
        ps.minSlackMinor = std::min(ps.minSlackMinor, s);
        const std::uint64_t myLat =
            lat[static_cast<std::size_t>(n.cls)];
        if (s == 0) {
            ++ps.critCount;
            ps.critLatencyMinor += myLat;
        }

        auto touch = [&](NodeIdx p, bool memory) {
            const std::uint64_t plat =
                lat[static_cast<std::size_t>(nodes_[p].cls)];
            if (latest[i] != earliest[p] + plat)
                return; // off every longest path
            EdgeAcc &acc =
                (memory ? memEdges
                        : regEdges)[edgeKey(nodes_[p].pc, n.pc)];
            ++acc.count;
            acc.latency += plat;
        };
        for (NodeIdx p : n.regPred) {
            if (p != kNoNode)
                touch(p, false);
        }
        if (n.memPred != kNoNode)
            touch(n.memPred, true);
    }

    auto harvest = [&](const std::unordered_map<std::uint64_t,
                                                EdgeAcc> &edges,
                       bool memory) {
        for (const auto &[key, acc] : edges) {
            CriticalEdge e;
            e.fromPc = static_cast<Pc>(key >> 32);
            e.toPc = static_cast<Pc>(key & 0xffffffffu);
            e.count = acc.count;
            e.latencyMinor = acc.latency;
            e.memory = memory;
            rep.topEdges.push_back(e);
        }
    };
    harvest(regEdges, false);
    harvest(memEdges, true);
    std::sort(rep.topEdges.begin(), rep.topEdges.end(),
              [](const CriticalEdge &a, const CriticalEdge &b) {
                  if (a.latencyMinor != b.latencyMinor)
                      return a.latencyMinor > b.latencyMinor;
                  if (a.count != b.count)
                      return a.count > b.count;
                  if (a.fromPc != b.fromPc)
                      return a.fromPc < b.fromPc;
                  if (a.toPc != b.toPc)
                      return a.toPc < b.toPc;
                  return a.memory < b.memory;
              });
    if (rep.topEdges.size() > topK)
        rep.topEdges.resize(topK);
    return rep;
}

} // namespace ilp
