/**
 * @file
 * The timing simulator: a strictly in-order issue engine running in
 * minor cycles (1/m of a base cycle), consuming the dynamic trace.
 *
 * Per Section 2 and the §2.3.2 exclusion, instructions never issue out
 * of order: "We will not consider superscalar machines or any other
 * machines that issue instructions out of order."  An instruction
 * issues in the earliest minor cycle t such that:
 *
 *  1. t is not before the previous instruction's issue cycle;
 *  2. fewer than `issueWidth` instructions have issued in t;
 *  3. every register source is ready (producer latency elapsed);
 *  4. loads wait for earlier stores to the same word to complete,
 *     stores wait for earlier stores to the same word (memory RAW /
 *     WAW through actual addresses);
 *  5. a functional-unit copy serving its class is free (class
 *     conflicts, §2.3.2) — unless the machine has fully duplicated
 *     units;
 *  6. if `issueAcrossBranches` is false, t is strictly after the
 *     latest branch's issue cycle.
 *
 * Branch prediction is perfect and control transfers add no latency
 * (§2.1's "no contribution to control latency" assumption).  Register
 * WAW is resolved by overwrite (last writer wins; no interlock) — see
 * DESIGN.md.  Elapsed time in base cycles is minor cycles / m, making
 * superscalar and superpipelined machines directly comparable.
 *
 * The engine keeps what a machine fixes apart from what the stream
 * changes (the split of prism's cp_super.hh):
 *
 *  - **Static table.**  At construction every Opcode gets one row:
 *    class, minor-cycle latency, the first copy of its unit in the
 *    flat unit_free_ array, the copy count and issue latency, and the
 *    is-store and branch-fence flags.  Nothing per record asks the
 *    ISA or the MachineConfig again.
 *  - **Batch core.**  issueBatch() times a run of records with the
 *    cycle being filled, its count, the fence, the last completion,
 *    the empty-cycle count and the stall tallies in locals, written
 *    back once per batch.  Every route feeds it: emit() is a batch
 *    of one (the interpreter, TeeSink, tests), a TraceBuffer replays
 *    as one batch, a PackedTrace chunk by chunk, and the bytecode
 *    VM's live timing stages packed records and flushes them here.
 *  - **Shape specializations.**  The core is instantiated per record
 *    form (DynInstr, PackedInstr) and machine shape: with or without
 *    functional units, and with or without the profile/timeline
 *    hooks.  The shape is chosen at construction and updated by
 *    enableProfile()/recordTimeline(), so the default path carries
 *    neither unit bookkeeping nor hook branches.
 */

#ifndef SUPERSYM_SIM_ISSUE_HH
#define SUPERSYM_SIM_ISSUE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/machine/machine.hh"
#include "sim/trace.hh"
#include "support/statistics.hh"
#include "support/stats.hh"

namespace ilp {

struct PackedInstr;

/**
 * Why an issue slot went unused (the paper's lost-parallelism
 * taxonomy, §4): every minor cycle of the issue period offers
 * `issueWidth` slots; each slot either issues an instruction or is
 * charged to exactly one cause.
 */
enum class StallCause : int
{
    /** A register or memory (same-word) operand was not yet ready —
     *  operation-latency interlock. */
    RawLatency = 0,
    /** Every functional-unit copy serving the class was busy
     *  (§2.3.2 class conflicts / issue latency). */
    UnitConflict,
    /** The machine does not issue across branch boundaries and a
     *  branch closed the cycle. */
    BranchFence,
    /** No instruction arrived to claim the slot: the partially filled
     *  final cycle when the trace drains. */
    FrontendDrain,
};

constexpr std::size_t kNumStallCauses = 4;

const char *stallCauseName(StallCause cause);

/** Lost issue slots per cause, in minor-cycle issue slots. */
struct StallBreakdown
{
    std::array<std::uint64_t, kNumStallCauses> slots{};

    std::uint64_t &operator[](StallCause c)
    {
        return slots[static_cast<std::size_t>(c)];
    }
    std::uint64_t operator[](StallCause c) const
    {
        return slots[static_cast<std::size_t>(c)];
    }
    std::uint64_t total() const;
};

/**
 * One issued instruction on the simulated timeline (recorded only
 * when timeline capture is enabled; feeds --trace-events).
 */
struct IssueEvent
{
    /** Issue minor cycle. */
    std::uint64_t cycle = 0;
    /** Issue slot within the cycle (0..issueWidth-1). */
    std::uint16_t slot = 0;
    /** Operation latency in minor cycles. */
    std::uint32_t latencyMinor = 1;
    InstrClass cls = InstrClass::IntAdd;
};

/**
 * Per-static-instruction timing counters (one record per pc), filled
 * by the issue engine when profiling is enabled.  Lost slots are
 * charged to the instruction that was *waiting* to issue — the
 * stalled consumer, not the producer it waited on.
 */
struct PcCounters
{
    /** Times this static instruction issued (slots it used). */
    std::uint64_t issued = 0;
    /** Lost slots charged while this instruction waited, per cause. */
    std::array<std::uint64_t, kNumStallCauses> stallSlots{};

    std::uint64_t
    stallTotal() const
    {
        std::uint64_t t = 0;
        for (std::uint64_t s : stallSlots)
            t += s;
        return t;
    }
};

class IssueEngine final : public TraceSink
{
  public:
    explicit IssueEngine(const MachineConfig &config);

    /** One record: a batch of one through the timing core (the
     *  TraceSink entry for the interpreter, TeeSink and tests). */
    void emit(const DynInstr &di) override;

    /**
     * Time `n` records in stream order through the batch core.
     * Identical to emitting them one by one; the fused executor,
     * packed-trace replay and buffered-trace replay all come here.
     */
    void emitBatch(const DynInstr *records, std::size_t n);
    void emitBatch(const PackedInstr *records, std::size_t n);

    /** Dynamic instructions issued so far. */
    std::uint64_t instructions() const { return instructions_; }

    /** Elapsed minor cycles until the last instruction completes. */
    std::uint64_t minorCycles() const;

    /** Elapsed time in base cycles (minor cycles / m). */
    double baseCycles() const;

    /**
     * Instructions per base cycle = dynamic instructions / base
     * cycles; on an ideal machine this is the available parallelism
     * actually exploited.
     */
    double instrPerBaseCycle() const;

    /**
     * issueCounts()[k] = number of minor cycles in which exactly k
     * instructions issued (k = 0..issueWidth), up to the last issue.
     */
    std::vector<std::uint64_t> issueCounts() const;

    // ------------------------------------------------- observability

    /**
     * Minor cycles of the issue period: cycle 0 through the cycle of
     * the last issue, inclusive (0 before anything issues).  Differs
     * from minorCycles() by the completion tail of in-flight latency.
     */
    std::uint64_t issuePeriodMinorCycles() const;

    /**
     * Issue slots that went unused during the issue period:
     * issueWidth * issuePeriodMinorCycles() - instructions().
     */
    std::uint64_t lostIssueSlots() const;

    /**
     * Per-cause attribution of every lost slot.  Invariant (asserted
     * by tests): stallBreakdown().total() == lostIssueSlots().
     */
    StallBreakdown stallBreakdown() const;

    /** Minor cycles between the last issue and the last completion
     *  (latency drain; not issue slots, reported separately). */
    std::uint64_t completionTailMinorCycles() const;

    /** Dynamic instructions issued per class. */
    const ClassCounts &classIssued() const { return class_issued_; }

    /**
     * Enable per-pc profiling for a program of `pcCount` static
     * instructions.  Off by default and free when off (the core is
     * instantiated without the hook).  Index pcCount is the bucket
     * for records with pc == kNoPc (modules that never went through
     * Module::assignPcs()).
     */
    void enableProfile(std::size_t pcCount);
    bool profileEnabled() const { return profile_enabled_; }

    /**
     * Snapshot of the per-pc counters, pcCount + 1 records (last =
     * unattributed bucket).  FrontendDrain of the still-open final
     * cycle is charged to the last-issued pc so the records reconcile
     * exactly with the aggregates:
     *   sum(issued)         == instructions()
     *   sum(stallSlots[c])  == stallBreakdown()[c]  for every cause
     *   sum(issued + stall) == issueWidth * issuePeriodMinorCycles()
     */
    std::vector<PcCounters> profileCounters() const;

    /**
     * Record the issue timeline (for --trace-events).  At most `limit`
     * events are kept; later issues only bump timelineDropped().
     */
    void recordTimeline(std::size_t limit);
    const std::vector<IssueEvent> &timeline() const
    {
        return timeline_;
    }
    std::uint64_t timelineDropped() const { return timeline_dropped_; }

    /**
     * Export everything above into a stats group ("issue"): totals,
     * stall attribution, per-width issue histogram, per-class counts.
     */
    void exportStats(stats::Group &g) const;

    const MachineConfig &config() const { return config_; }

  private:
    /** The static image of one opcode on this machine. */
    struct OpRow
    {
        /** Operation latency in minor cycles. */
        std::uint64_t latencyMinor = 1;
        /** Minor cycles a unit copy stays busy after an issue. */
        std::uint64_t issueLatency = 1;
        /** First copy of the serving unit in unit_free_. */
        std::uint32_t unitBase = 0;
        /** Copies of the serving unit (0 on ideal machines). */
        std::uint32_t copies = 0;
        InstrClass cls = InstrClass::IntAdd;
        /** Stores update the word's ready time. */
        bool store = false;
        /** Closes the cycle (branch or jump, !issueAcrossBranches). */
        bool fence = false;
    };

    /** Which core instantiation runs: unit conflicts, hooks. */
    enum Shape : std::uint8_t
    {
        kUnits = 1,
        kHooks = 2,
    };

    template <class Rec>
    void dispatch(const Rec *records, std::size_t n);
    template <class Rec, bool Units, bool Hooks>
    void issueBatch(const Rec *records, std::size_t n);

    MachineConfig config_;
    std::array<OpRow, kNumOpcodes> rows_{};
    std::uint8_t shape_ = 0;

    std::uint64_t instructions_ = 0;
    /** Minor cycle currently being filled. */
    std::uint64_t cur_cycle_ = 0;
    /** Instructions already issued in cur_cycle_. */
    int cur_count_ = 0;
    /** Completion time of the latest-finishing instruction. */
    std::uint64_t last_complete_ = 0;
    /** Earliest cycle the next instruction may use (branch fences). */
    std::uint64_t fence_ = 0;

    /** Ready time per register, grown on demand; absent entries mean
     *  "ready at 0". */
    std::vector<std::uint64_t> reg_ready_;
    /** Ready time per memory *word* (index addr / kWordBytes), grown
     *  on demand.  Addresses are word-aligned and bounded by the
     *  simulated memory, so a flat table beats a hash map on the
     *  per-instruction hot path; absent entries mean "ready at 0". */
    std::vector<std::uint64_t> store_ready_;
    /** Next-free minor cycle of every functional-unit copy, unit by
     *  unit (OpRow::unitBase indexes it). */
    std::vector<std::uint64_t> unit_free_;

    /** counts_[k] = closed cycles that issued exactly k instrs. */
    std::vector<std::uint64_t> counts_;
    /** Fully-empty cycles skipped during stalls. */
    std::uint64_t empty_cycles_ = 0;

    /** Lost-slot attribution (FrontendDrain added at snapshot time). */
    StallBreakdown stalls_;
    /** Dynamic instructions per class. */
    ClassCounts class_issued_{};

    /** Per-pc counters (empty unless enableProfile()). */
    bool profile_enabled_ = false;
    std::vector<PcCounters> profile_;
    /** pc of the most recently issued instruction (drain charge). */
    std::size_t last_profile_slot_ = 0;

    /** Issue timeline capture (off unless recordTimeline()). */
    bool timeline_enabled_ = false;
    std::size_t timeline_limit_ = 0;
    std::uint64_t timeline_dropped_ = 0;
    std::vector<IssueEvent> timeline_;
};

/**
 * Convenience: replay a buffered trace on a machine and return the
 * elapsed base cycles.
 */
double simulateTrace(const TraceBuffer &trace,
                     const MachineConfig &config);

} // namespace ilp

#endif // SUPERSYM_SIM_ISSUE_HH
