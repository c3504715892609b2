#include "sim/issue.hh"

#include <algorithm>

#include "sim/ptrace.hh"
#include "support/logging.hh"

namespace ilp {

const char *
stallCauseName(StallCause cause)
{
    switch (cause) {
      case StallCause::RawLatency: return "raw_latency";
      case StallCause::UnitConflict: return "unit_conflict";
      case StallCause::BranchFence: return "branch_fence";
      case StallCause::FrontendDrain: return "frontend_drain";
    }
    SS_PANIC("bad StallCause ", static_cast<int>(cause));
}

std::uint64_t
StallBreakdown::total() const
{
    std::uint64_t t = 0;
    for (std::uint64_t s : slots)
        t += s;
    return t;
}

namespace {

/** Index no table reaches: an absent source, destination or address. */
constexpr std::uint64_t kAbsent = ~std::uint64_t{0};

// Record views.  The batch core reads both record forms through
// these, so one template times the buffered and the packed stream.

std::size_t recOp(const DynInstr &r) { return static_cast<std::size_t>(r.op); }
std::size_t recOp(const PackedInstr &r) { return r.op; }

unsigned recNumSrcs(const DynInstr &r) { return r.numSrcs; }
unsigned
recNumSrcs(const PackedInstr &r)
{
    return r.meta & PackedInstr::kNumSrcsMask;
}

std::uint64_t recSrc(const DynInstr &r, unsigned i) { return r.srcs[i]; }
std::uint64_t recSrc(const PackedInstr &r, unsigned i) { return r.srcs[i]; }

std::uint64_t
recDst(const DynInstr &r)
{
    return r.dst == kNoReg ? kAbsent : r.dst;
}
std::uint64_t
recDst(const PackedInstr &r)
{
    return r.dst == PackedInstr::kNoReg16 ? kAbsent : r.dst;
}

std::uint64_t
recWord(const DynInstr &r)
{
    return r.addr >= 0 ? static_cast<std::uint64_t>(r.addr / kWordBytes)
                       : kAbsent;
}
std::uint64_t
recWord(const PackedInstr &r)
{
    return (r.meta & PackedInstr::kHasAddr) ? r.addrWord : kAbsent;
}

Pc recPc(const DynInstr &r) { return r.pc; }
Pc recPc(const PackedInstr &r) { return r.pc; }

} // namespace

IssueEngine::IssueEngine(const MachineConfig &config)
    : config_(config)
{
    config_.validate();
    std::vector<std::uint32_t> unit_base(config_.units.size(), 0);
    for (std::size_t u = 0; u < config_.units.size(); ++u) {
        unit_base[u] = static_cast<std::uint32_t>(unit_free_.size());
        unit_free_.resize(
            unit_free_.size() +
                static_cast<std::size_t>(config_.units[u].multiplicity),
            0);
    }
    for (std::size_t op = 0; op < kNumOpcodes; ++op) {
        OpRow &row = rows_[op];
        row.cls = opcodeClass(static_cast<Opcode>(op));
        row.latencyMinor =
            static_cast<std::uint64_t>(config_.latencyMinor(row.cls));
        const int unit = config_.unitFor(row.cls);
        if (unit >= 0) {
            const FuncUnit &fu =
                config_.units[static_cast<std::size_t>(unit)];
            row.unitBase = unit_base[static_cast<std::size_t>(unit)];
            row.copies = static_cast<std::uint32_t>(fu.multiplicity);
            row.issueLatency =
                static_cast<std::uint64_t>(fu.issueLatency);
            SS_ASSERT(row.copies > 0, "unit ", fu.name,
                      " has no copies");
        }
        row.store = isStore(static_cast<Opcode>(op));
        row.fence = !config_.issueAcrossBranches &&
                    (row.cls == InstrClass::Branch ||
                     row.cls == InstrClass::Jump);
    }
    shape_ = config_.units.empty() ? 0 : kUnits;
    counts_.assign(static_cast<std::size_t>(config_.issueWidth) + 1, 0);
    SS_DEBUG("issue", "engine for ", config_.name, ": width ",
             config_.issueWidth, ", degree ", config_.pipelineDegree);
}

/**
 * The timing core.  Everything the cycle-by-cycle rules carry from
 * one record to the next lives in locals for the whole batch and is
 * written back once at the end, so the per-record stores into the
 * ready tables cannot force reloads.
 *
 * The rules stay branches: the stall test is predictable enough that
 * speculating past it beats computing every select (a mask-and-select
 * form of this loop measured half as fast).  A unit-conflict machine
 * never re-checks its unit copy when a full cycle closes: the record
 * could issue in that cycle, so its copy was already free.
 */
template <class Rec, bool Units, bool Hooks>
void
IssueEngine::issueBatch(const Rec *records, std::size_t n)
{
    const std::uint64_t width =
        static_cast<std::uint64_t>(config_.issueWidth);
    const OpRow *const rows = rows_.data();
    std::uint64_t *const counts = counts_.data();
    std::uint64_t *const units = unit_free_.data();
    std::uint64_t *regs = reg_ready_.data();
    std::uint64_t nregs = reg_ready_.size();
    std::uint64_t *words = store_ready_.data();
    std::uint64_t nwords = store_ready_.size();

    std::uint64_t cur = cur_cycle_;
    std::uint64_t count = static_cast<std::uint64_t>(cur_count_);
    std::uint64_t fence = fence_;
    std::uint64_t last = last_complete_;
    std::uint64_t empty = empty_cycles_;
    StallBreakdown lost_by{};

    for (std::size_t i = 0; i < n; ++i) {
        const Rec &rec = records[i];
        const OpRow &row = rows[recOp(rec)];

        // Component earliest-issue times, kept separate so a stall
        // can be charged to the binding constraint.  Register RAW
        // first (a register never written reads as ready at 0).
        std::uint64_t t_data = 0;
        const unsigned nsrcs = recNumSrcs(rec);
        for (unsigned k = 0; k < nsrcs; ++k) {
            const std::uint64_t s = recSrc(rec, k);
            if (s < nregs)
                t_data = std::max(t_data, regs[s]);
        }
        // Memory RAW / WAW through the actual word address.
        const std::uint64_t word = recWord(rec);
        if (word < nwords)
            t_data = std::max(t_data, words[word]);

        // Functional-unit availability: the earliest-free copy.
        std::uint64_t t_unit = 0;
        std::uint64_t *copy = nullptr;
        if constexpr (Units) {
            copy = units + row.unitBase;
            for (std::uint32_t k = 1; k < row.copies; ++k) {
                if (units[row.unitBase + k] < *copy)
                    copy = units + row.unitBase + k;
            }
            t_unit = *copy;
        }

        // Earliest issue: in order, after the branch fence, operands
        // ready, and a unit copy free.
        const std::uint64_t t =
            std::max(std::max(cur, fence), std::max(t_data, t_unit));

        std::uint64_t lost = 0;
        StallCause cause = StallCause::BranchFence;
        if (t > cur) {
            // The cycle being filled closes short, plus (t-cur-1)
            // fully empty cycles: charge every lost slot to the
            // binding constraint (latency beats unit beats fence on
            // ties — the paper's headline cause wins ambiguous
            // slots).
            if (t_data >= t)
                cause = StallCause::RawLatency;
            else if (Units && t_unit >= t)
                cause = StallCause::UnitConflict;
            lost = (width - count) + (t - cur - 1) * width;
            lost_by[cause] += lost;
            ++counts[count];
            empty += t - cur - 1;
            cur = t;
            count = 0;
        } else if (count >= width) {
            ++counts[count];
            ++cur;
            count = 0;
        }

        // --- Issue at minor cycle cur. ---
        if constexpr (Hooks) {
            if (timeline_enabled_) {
                if (timeline_.size() < timeline_limit_) {
                    IssueEvent ev;
                    ev.cycle = cur;
                    ev.slot = static_cast<std::uint16_t>(count);
                    ev.latencyMinor =
                        static_cast<std::uint32_t>(row.latencyMinor);
                    ev.cls = row.cls;
                    timeline_.push_back(ev);
                } else {
                    ++timeline_dropped_;
                }
            }
            if (profile_enabled_) {
                const Pc pc = recPc(rec);
                const std::size_t pslot =
                    pc < profile_.size() - 1
                        ? static_cast<std::size_t>(pc)
                        : profile_.size() - 1;
                PcCounters &pcc = profile_[pslot];
                pcc.stallSlots[static_cast<std::size_t>(cause)] += lost;
                ++pcc.issued;
                last_profile_slot_ = pslot;
            }
        }
        ++count;
        ++class_issued_[static_cast<std::size_t>(row.cls)];

        const std::uint64_t done = cur + row.latencyMinor;
        last = std::max(last, done);

        const std::uint64_t dst = recDst(rec);
        if (dst != kAbsent) {
            if (dst >= nregs) [[unlikely]] {
                reg_ready_.resize(static_cast<std::size_t>(dst) + 1, 0);
                regs = reg_ready_.data();
                nregs = reg_ready_.size();
            }
            regs[dst] = done;
        }
        if (row.store && word != kAbsent) {
            if (word >= nwords) [[unlikely]] {
                store_ready_.resize(static_cast<std::size_t>(word) + 1,
                                    0);
                words = store_ready_.data();
                nwords = store_ready_.size();
            }
            words[word] = done;
        }
        if constexpr (Units)
            *copy = cur + row.issueLatency;
        if (row.fence)
            fence = cur + 1;
    }

    instructions_ += n;
    cur_cycle_ = cur;
    cur_count_ = static_cast<int>(count);
    fence_ = fence;
    last_complete_ = last;
    empty_cycles_ = empty;
    for (std::size_t c = 0; c < kNumStallCauses; ++c)
        stalls_.slots[c] += lost_by.slots[c];
}

template <class Rec>
void
IssueEngine::dispatch(const Rec *records, std::size_t n)
{
    switch (shape_) {
      case 0: issueBatch<Rec, false, false>(records, n); break;
      case kUnits: issueBatch<Rec, true, false>(records, n); break;
      case kHooks: issueBatch<Rec, false, true>(records, n); break;
      default: issueBatch<Rec, true, true>(records, n); break;
    }
}

void
IssueEngine::emit(const DynInstr &di)
{
    dispatch(&di, 1);
}

void
IssueEngine::emitBatch(const DynInstr *records, std::size_t n)
{
    dispatch(records, n);
}

void
IssueEngine::emitBatch(const PackedInstr *records, std::size_t n)
{
    dispatch(records, n);
}

std::uint64_t
IssueEngine::minorCycles() const
{
    return last_complete_;
}

std::vector<std::uint64_t>
IssueEngine::issueCounts() const
{
    std::vector<std::uint64_t> out = counts_;
    out[0] += empty_cycles_;
    if (cur_count_ > 0 &&
        static_cast<std::size_t>(cur_count_) < out.size())
        ++out[static_cast<std::size_t>(cur_count_)];
    return out;
}

double
IssueEngine::baseCycles() const
{
    return static_cast<double>(last_complete_) /
           static_cast<double>(config_.pipelineDegree);
}

double
IssueEngine::instrPerBaseCycle() const
{
    SS_ASSERT(last_complete_ > 0, "no instructions simulated");
    return static_cast<double>(instructions_) / baseCycles();
}

std::uint64_t
IssueEngine::issuePeriodMinorCycles() const
{
    return instructions_ > 0 ? cur_cycle_ + 1 : 0;
}

std::uint64_t
IssueEngine::lostIssueSlots() const
{
    return issuePeriodMinorCycles() *
               static_cast<std::uint64_t>(config_.issueWidth) -
           instructions_;
}

StallBreakdown
IssueEngine::stallBreakdown() const
{
    StallBreakdown bd = stalls_;
    // The final, still-open cycle: slots past the last issue had no
    // instruction left to claim them.
    if (instructions_ > 0 && cur_count_ < config_.issueWidth)
        bd[StallCause::FrontendDrain] +=
            static_cast<std::uint64_t>(config_.issueWidth -
                                       cur_count_);
    return bd;
}

std::uint64_t
IssueEngine::completionTailMinorCycles() const
{
    return last_complete_ - issuePeriodMinorCycles();
}

void
IssueEngine::enableProfile(std::size_t pcCount)
{
    profile_enabled_ = true;
    shape_ |= kHooks;
    profile_.assign(pcCount + 1, PcCounters{});
    last_profile_slot_ = pcCount; // unattributed until the 1st issue
}

std::vector<PcCounters>
IssueEngine::profileCounters() const
{
    SS_ASSERT(profile_enabled_,
              "profileCounters() without enableProfile()");
    std::vector<PcCounters> out = profile_;
    // Mirror stallBreakdown(): the still-open final cycle's empty
    // slots drained with no instruction left to claim them; charge
    // them to the last instruction that did issue so per-pc records
    // sum exactly to the aggregate breakdown.
    if (instructions_ > 0 && cur_count_ < config_.issueWidth)
        out[last_profile_slot_].stallSlots[static_cast<std::size_t>(
            StallCause::FrontendDrain)] +=
            static_cast<std::uint64_t>(config_.issueWidth -
                                       cur_count_);
    return out;
}

void
IssueEngine::recordTimeline(std::size_t limit)
{
    timeline_enabled_ = limit > 0;
    timeline_limit_ = limit;
    if (timeline_enabled_)
        shape_ |= kHooks;
    timeline_.reserve(std::min<std::size_t>(limit, 1 << 16));
}

void
IssueEngine::exportStats(stats::Group &g) const
{
    const std::uint64_t period = issuePeriodMinorCycles();
    const std::uint64_t width =
        static_cast<std::uint64_t>(config_.issueWidth);

    g.counter("instructions", "dynamic instructions issued")
        .inc(instructions_);
    g.counter("minor_cycles", "elapsed minor cycles to last completion")
        .inc(minorCycles());
    g.scalar("base_cycles", "elapsed base cycles (minor / m)")
        .set(baseCycles());
    g.scalar("ipc", "instructions per base cycle")
        .set(last_complete_ > 0 ? instrPerBaseCycle() : 0.0);
    g.counter("issue_period_minor_cycles",
              "minor cycles from first to last issue")
        .inc(period);
    g.counter("issue_slots_total",
              "issue slots offered during the issue period")
        .inc(period * width);
    g.counter("lost_issue_slots", "slots that issued nothing")
        .inc(lostIssueSlots());
    g.counter("completion_tail_minor_cycles",
              "latency drain after the last issue")
        .inc(completionTailMinorCycles());

    stats::Group &stall =
        g.group("stall", "lost issue slots by cause");
    StallBreakdown bd = stallBreakdown();
    for (std::size_t c = 0; c < kNumStallCauses; ++c)
        stall.counter(stallCauseName(static_cast<StallCause>(c)))
            .inc(bd.slots[c]);

    stats::Distribution &hist = g.distribution(
        "issued_per_cycle",
        "instructions issued per minor cycle of the issue period");
    std::vector<std::uint64_t> counts = issueCounts();
    for (std::size_t k = 0; k < counts.size(); ++k)
        hist.sample(static_cast<std::int64_t>(k), counts[k]);

    stats::Group &cls_g =
        g.group("class_issued", "dynamic instructions per class");
    for (std::size_t c = 0; c < kNumInstrClasses; ++c) {
        if (class_issued_[c] > 0)
            cls_g
                .counter(std::string(
                    instrClassName(static_cast<InstrClass>(c))))
                .inc(class_issued_[c]);
    }
}

double
simulateTrace(const TraceBuffer &trace, const MachineConfig &config)
{
    IssueEngine engine(config);
    trace.replay(engine);
    return engine.baseCycles();
}

} // namespace ilp
