/**
 * @file
 * TraceCache: live first, record on reuse.
 *
 * A functional execution depends only on the compiled Module, never
 * on the machine being timed, so the packed dynamic stream of one
 * compile key (CompileCache::key) can be timed against any number of
 * machines by replay.  Recording is not free, though: packing a trace
 * (executeWorkload) costs ~41 ns per dynamic instruction, ~18 ns of
 * it first-touch page faults at 20 bytes per instruction, while a
 * fused live timing (runOnMachine) costs ~26 ns and a replay
 * (timeTrace) ~20.5 ns — a trace pays back only after ~8 timings of
 * one key.  So timedRun() decides by observed reuse: the first
 * timing of a key runs live and records nothing; the second records
 * the packed trace and replays it; later timings replay.
 *
 * Like CompileCache, recording is future-based: the first recorder
 * of a key executes, concurrent requesters park on the entry's
 * shared_future, so at most one recording per key is a structural
 * guarantee, not a race outcome.
 *
 * Packed traces are large, so the cache holds a global byte budget
 * (--trace-budget / SSIM_TRACE_BUDGET, default 2 GiB): recording is
 * capped at the budget, completed entries are accounted per-entry
 * and evicted LRU while the total exceeds the budget, and a trace
 * that cannot be recorded within the budget — or a run that trapped
 * — yields a non-replayable artifact that timedRun() times live
 * instead (a fallback).  A budget of 0 never records: every timing
 * runs live, the byte-compare control used by check.sh.
 *
 * A miss is a lookup that executed, live or recorded; a hit is a
 * replay of a held (or in-flight) recording.  Hit/miss/eviction/
 * fallback counters are exported on demand via exportStats (like
 * CompileCache's) and deliberately never folded into per-run stats
 * snapshots: eviction order depends on thread interleaving, and
 * cached and uncached runs must stay byte-identical.
 */

#ifndef SUPERSYM_CORE_STUDY_TRACECACHE_HH
#define SUPERSYM_CORE_STUDY_TRACECACHE_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "core/study/driver.hh"

namespace ilp {

/**
 * Parse a byte size with an optional k/m/g (or K/M/G) binary suffix,
 * e.g. "512m", "2g", "65536".  @return false on malformed input or
 * overflow, leaving `out` untouched.
 */
bool parseByteSize(const std::string &text, std::size_t &out);

/** Trace budget used when none is given explicitly: SSIM_TRACE_BUDGET
 *  when set and parseable (0 disables the cache), otherwise 2 GiB.
 *  A malformed value warns and falls through to the default. */
std::size_t defaultTraceBudget();

/**
 * Concurrency-safe, byte-budgeted cache of functional executions,
 * recorded only for keys that are timed more than once.
 *
 * Keys are caller-supplied strings — in practice CompileCache::key —
 * because the artifact's identity is exactly the compiled module's.
 */
class TraceCache
{
  public:
    explicit TraceCache(std::size_t budgetBytes = defaultTraceBudget())
        : budget_(budgetBytes)
    {
    }

    /** A zero budget disables recording; every timing runs live. */
    bool enabled() const { return budget() > 0; }

    std::size_t
    budget() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return budget_;
    }

    /** Change the budget; an already-over-budget cache evicts down
     *  immediately. */
    void setBudget(std::size_t bytes);

    /**
     * Time `module` (compiled under `key`) on `machine`: live on the
     * key's first timing, recording and replaying on the second,
     * replaying after that.  Byte-identical to runOnMachine() on
     * every path.  A transient or deadline trap throws TrapException
     * and leaves the key untimed, so a retry starts over.  A
     * recording that is not replayable is timed live, counted in
     * fallbacks() and noted as a degraded sweep cell.
     */
    RunOutcome timedRun(const std::string &key, const Module &module,
                        const MachineConfig &machine,
                        const RunTelemetryOptions &telemetry = {},
                        const CompileTelemetry *compile = nullptr);

    /**
     * The recorded execution for `key`, executing `module` on first
     * use.  Concurrent requesters of one key share a single
     * execution.  The artifact may be non-replayable (trapped, or
     * trace over budget).  timedRun() calls this once a key is timed
     * again.
     */
    std::shared_ptr<const TraceArtifact>
    execute(const std::string &key, const Module &module);

    /** Lookups served from a recording (replays). */
    std::uint64_t hits() const { return hits_.load(); }
    /** Lookups that executed, live or recorded. */
    std::uint64_t misses() const { return misses_.load(); }
    /** Entries discarded to fit the byte budget. */
    std::uint64_t evictions() const { return evictions_.load(); }
    /** Timings whose recording was not replayable, so ran live. */
    std::uint64_t fallbacks() const { return fallbacks_.load(); }

    /** Distinct executions held. */
    std::size_t size() const;
    /** Trace bytes currently accounted against the budget. */
    std::size_t bytesHeld() const;

    /** Export counters into a stats group (on demand only — never
     *  part of per-run snapshots; see file comment). */
    void exportStats(stats::Group &g) const;

  private:
    using Artifact = std::shared_ptr<const TraceArtifact>;

    struct Entry
    {
        std::shared_future<Artifact> future;
        /** Monotonic use tick for LRU; bumped on every lookup. */
        std::uint64_t lastUse = 0;
        /** Trace bytes, accounted once the producer completes. */
        std::size_t bytes = 0;
        bool ready = false;
    };

    /** Drop least-recently-used ready entries until the accounted
     *  bytes fit the budget.  Caller holds mu_. */
    void evictLocked();

    mutable std::mutex mu_;
    std::map<std::string, Entry> entries_;
    /** Keys timed at least once: the next timing records. */
    std::set<std::string> timed_;
    std::size_t budget_;
    std::size_t bytes_held_ = 0;
    std::uint64_t use_clock_ = 0;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> fallbacks_{0};
};

} // namespace ilp

#endif // SUPERSYM_CORE_STUDY_TRACECACHE_HH
