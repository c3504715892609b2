/**
 * @file
 * Packed dynamic traces: what the trace cache records once a compile
 * key is timed again, so later timings replay instead of executing.
 *
 * A DynInstr is ~40 bytes of convenient in-flight record; buffering
 * whole executions of millions of instructions at that size is what
 * made replaying one functional execution against many machines too
 * expensive to be the default.  PackedInstr is the same information
 * in exactly 20 bytes (16 before the profiler added the static pc),
 * stored in fixed-size chunks (no giant reallocations), with a
 * lossless round trip to/from DynInstr for every record the
 * interpreter actually produces.
 *
 * Records that cannot be represented (a register index >= 0xffff, an
 * unaligned or out-of-range address) are detected at append time and
 * flag the trace as incomplete; consumers (core/study's TraceCache)
 * then fall back to live timing instead of replaying a lossy trace.  The streaming TraceSink path (sim/trace.hh) is unchanged
 * and remains the single-run / --trace-events route.
 */

#ifndef SUPERSYM_SIM_PTRACE_HH
#define SUPERSYM_SIM_PTRACE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/cancel.hh"
#include "sim/trace.hh"

namespace ilp {

/**
 * One executed instruction in 20 bytes.
 *
 * Registers are narrowed to 16 bits (0xffff encodes kNoReg) and the
 * byte address of a memory reference to a 32-bit word index — enough
 * for every register file and memory the toolchain can build today;
 * canPack() is the authoritative gate.  The static pc is kept at
 * full width: kNoPc must survive the round trip, and real programs
 * can exceed 64 Ki static instructions after unrolling.
 */
struct PackedInstr
{
    static constexpr std::uint16_t kNoReg16 = 0xffff;
    /** meta layout: bits 0..2 = numSrcs, bit 3 = has-address. */
    static constexpr std::uint8_t kNumSrcsMask = 0x07;
    static constexpr std::uint8_t kHasAddr = 0x08;

    std::uint8_t op = 0;
    std::uint8_t meta = 0;
    std::uint16_t dst = kNoReg16;
    std::uint16_t srcs[4] = {kNoReg16, kNoReg16, kNoReg16, kNoReg16};
    /** addr / kWordBytes when kHasAddr is set; 0 otherwise. */
    std::uint32_t addrWord = 0;
    /** Static instruction id, stored verbatim (kNoPc included). */
    std::uint32_t pc = kNoPc;

    /** Can `di` round-trip through the packed form losslessly? */
    static bool canPack(const DynInstr &di);

    /** Pack `di`; the caller must have checked canPack(). */
    static PackedInstr pack(const DynInstr &di);

    /** The original DynInstr, bit-for-bit.  Inline: the bytecode
     *  VM's generic traced path unpacks every record it emits. */
    [[gnu::always_inline]] DynInstr
    unpack() const
    {
        auto widen = [](std::uint16_t r) {
            return r == kNoReg16 ? kNoReg : static_cast<Reg>(r);
        };
        DynInstr di;
        di.op = static_cast<Opcode>(op);
        di.dst = widen(dst);
        for (std::size_t i = 0; i < di.srcs.size(); ++i)
            di.srcs[i] = widen(srcs[i]);
        di.numSrcs = static_cast<std::uint8_t>(meta & kNumSrcsMask);
        di.addr = (meta & kHasAddr)
                      ? static_cast<std::int64_t>(addrWord) * kWordBytes
                      : -1;
        di.pc = pc;
        return di;
    }
};

static_assert(sizeof(PackedInstr) == 20,
              "PackedInstr must stay 20 bytes — trace memory is the "
              "trace cache's budget");

/**
 * A whole execution's dynamic stream in packed, chunked storage.
 *
 * Immutable once recorded (the recorder appends; consumers only
 * iterate), so one trace can be replayed concurrently from many
 * threads.
 */
class PackedTrace
{
  public:
    /** Instructions per chunk (1 MiB of records). */
    static constexpr std::size_t kChunkInstrs = 1u << 16;

    /**
     * Append one record.  @return false — and record nothing — when
     * the record cannot be packed losslessly; the caller must then
     * treat the whole trace as incomplete.
     */
    bool
    append(const DynInstr &di)
    {
        if (!PackedInstr::canPack(di))
            return false;
        appendPacked(PackedInstr::pack(di));
        return true;
    }

    /** Append a record already in packed form (lossless by
     *  construction, so nothing to check). */
    void
    appendPacked(const PackedInstr &rec)
    {
        if (chunks_.empty() || chunks_.back().size() == kChunkInstrs) {
            chunks_.emplace_back();
            chunks_.back().reserve(kChunkInstrs);
        }
        chunks_.back().push_back(rec);
        ++size_;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Bytes of packed record storage (the TraceCache's budget unit). */
    std::size_t byteSize() const { return size_ * sizeof(PackedInstr); }

    void
    clear()
    {
        chunks_.clear();
        chunks_.shrink_to_fit();
        size_ = 0;
    }

    /** Input iterator yielding each record unpacked to a DynInstr. */
    class const_iterator
    {
      public:
        const_iterator() = default;
        const_iterator(const PackedTrace *trace, std::size_t chunk,
                       std::size_t index)
            : trace_(trace), chunk_(chunk), index_(index)
        {
        }

        DynInstr operator*() const
        {
            return trace_->chunks_[chunk_][index_].unpack();
        }

        const_iterator &
        operator++()
        {
            if (++index_ == trace_->chunks_[chunk_].size()) {
                ++chunk_;
                index_ = 0;
            }
            return *this;
        }

        bool operator==(const const_iterator &o) const
        {
            return trace_ == o.trace_ && chunk_ == o.chunk_ &&
                   index_ == o.index_;
        }
        bool operator!=(const const_iterator &o) const
        {
            return !(*this == o);
        }

      private:
        const PackedTrace *trace_ = nullptr;
        std::size_t chunk_ = 0;
        std::size_t index_ = 0;
    };

    const_iterator begin() const { return {this, 0, 0}; }
    const_iterator end() const { return {this, chunks_.size(), 0}; }

    /**
     * Replay the whole trace into a sink (the time-many half: feed
     * the IssueEngine / CacheSink without re-executing anything).
     * Walks the chunks linearly — this is the sweep hot path.  The
     * cooperative cell deadline is polled every
     * cancel::kDeadlinePollInterval records (the same cadence as the
     * execution backends), so a watchdogged replay cancels promptly.
     *
     * A sink with emitBatch(const PackedInstr *, std::size_t) — the
     * IssueEngine, the CacheSink — gets the packed records a poll
     * interval at a time, with no unpacking; any other sink gets
     * each record unpacked to a DynInstr.
     */
    template <class Sink>
    void
    replay(Sink &sink) const
    {
        for (const auto &chunk : chunks_) {
            for (std::size_t i = 0; i < chunk.size();
                 i += cancel::kDeadlinePollInterval) {
                cancel::pollDeadline();
                const std::size_t stop = std::min(
                    chunk.size(), i + cancel::kDeadlinePollInterval);
                if constexpr (requires {
                                  sink.emitBatch(chunk.data(), 0);
                              }) {
                    sink.emitBatch(chunk.data() + i, stop - i);
                } else {
                    for (std::size_t j = i; j < stop; ++j)
                        sink.emit(chunk[j].unpack());
                }
            }
        }
    }

  private:
    std::vector<std::vector<PackedInstr>> chunks_;
    std::size_t size_ = 0;
};

/**
 * TraceSink that records into a PackedTrace, with a byte cap.
 *
 * When a record cannot be packed or the cap is reached, recording
 * stops (the partial trace is useless for replay, so it is dropped)
 * but the functional execution streams on unharmed; complete()
 * reports whether the trace covers the whole run.
 */
class PackedSink final : public TraceSink
{
  public:
    explicit PackedSink(PackedTrace &out,
                        std::size_t maxBytes = static_cast<std::size_t>(-1))
        : out_(&out), max_bytes_(maxBytes)
    {
    }

    void
    emit(const DynInstr &di) override
    {
        if (!recording_)
            return;
        if (out_->byteSize() + sizeof(PackedInstr) > max_bytes_ ||
            !out_->append(di)) {
            recording_ = false;
            out_->clear();
        }
    }

    /** emit() for a record already in packed form (the bytecode VM's
     *  fused recorder). */
    [[gnu::always_inline]] void
    emitPacked(const PackedInstr &rec)
    {
        if (!recording_)
            return;
        if (out_->byteSize() + sizeof(PackedInstr) > max_bytes_) {
            recording_ = false;
            out_->clear();
            return;
        }
        out_->appendPacked(rec);
    }

    /** Every emitted record was stored losslessly within the cap. */
    bool complete() const { return recording_; }

  private:
    PackedTrace *out_;
    std::size_t max_bytes_;
    bool recording_ = true;
};

} // namespace ilp

#endif // SUPERSYM_SIM_PTRACE_HH
