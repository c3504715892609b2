/**
 * @file
 * The parallel sweep engine.
 *
 * The paper's whole method is evaluating one (workload, compile
 * options) pair across many machine specifications (§3–§4).  Every
 * such sweep is embarrassingly parallel — cells share nothing but
 * immutable inputs — and highly cache-friendly: cells that differ
 * only in parameters the compiler cannot see (e.g. operation
 * latencies with identical scheduling behaviour do differ, but two
 * machines differing only in *name*) share a compilation.
 *
 * SweepRunner fans cell evaluations out over a fixed pool of
 * std::thread workers pulling indices off an atomic queue; results
 * land in an index-ordered vector, so consumers that fill tables or
 * append trajectories after the barrier produce byte-identical
 * output regardless of the job count.
 *
 * CompileCache shares compiled Modules between cells: one
 * optimization and register allocation per distinct (workload,
 * compile options), and one scheduling of it per distinct
 * scheduling-relevant machine, concurrency-safe via per-entry futures
 * so two workers never duplicate a compile.  Modules are immutable
 * after compilation and each cell gets its own Interpreter/
 * IssueEngine, so sharing them across threads is safe by
 * construction.
 *
 * Job-count resolution (see defaultSweepJobs): explicit argument >
 * SSIM_JOBS environment variable > std::thread::hardware_concurrency.
 */

#ifndef SUPERSYM_CORE_STUDY_SWEEP_HH
#define SUPERSYM_CORE_STUDY_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/study/driver.hh"
#include "sim/cancel.hh"
#include "support/faultinject.hh"

namespace ilp {

/**
 * Inside a catch handler: rethrow a fresh copy of the caught
 * TrapException, DiagException or std::bad_alloc (anything else is
 * rethrown as is).
 */
[[noreturn]] void rethrowOwnCopy();

/**
 * shared_future::get() for the future-based caches, where every
 * waiter of a failed producer would otherwise rethrow one shared
 * exception object.  Its reference count lives in the C++ runtime,
 * which ThreadSanitizer does not see, so freeing it in one worker
 * reads as a race with another worker's use.  Each caller gets its
 * own copy instead; the shared object is freed with the future's
 * state, after every waiter let go of it.
 */
template <typename T>
const T &
sharedGet(const std::shared_future<T> &future)
{
    try {
        return future.get();
    } catch (...) {
        rethrowOwnCopy();
    }
}

/**
 * Worker count used when a SweepRunner is built without an explicit
 * job count: SSIM_JOBS when set to a positive integer, otherwise the
 * hardware concurrency (at least 1).  A malformed SSIM_JOBS warns and
 * falls through.
 */
int defaultSweepJobs();

/** One failed sweep cell: a stable error code plus the formatted
 *  diagnostic text.  Deterministic for a given cell — the same cell
 *  fails identically at any job count. */
struct CellError
{
    ErrCode code = ErrCode::None;
    std::string message;

    bool valid() const { return code != ErrCode::None; }
};

/** Translate the in-flight exception into a CellError (call from a
 *  catch handler): DiagException and TrapException keep their stable
 *  codes and full formatted text; anything else maps to E0999. */
CellError currentCellError();

/** Record a keep-going cell failure with the observability layer:
 *  stamps the error's E-code onto the enclosing flight-recorder span
 *  (so the worker timeline shows the trapped cell instead of
 *  truncating), bumps the failed-cells metric, and notifies the live
 *  progress reporter. */
void noteCellFailure(const CellError &error);

/** Value-or-error result of one sweep cell under keep-going mode. */
template <typename T>
struct CellOutcome
{
    T value{};
    CellError error;
    /** Evaluation attempts this cell took (1 = first try succeeded;
     *  only mapHardened retries, so mapChecked always reports 1). */
    int attempts = 1;
    /** The cell completed, but at least one attempt fell back to
     *  live interpretation (memory pressure / non-replayable trace). */
    bool degraded = false;
    /** The cell failed permanently (or exhausted its retries) and
     *  was isolated from the sweep. */
    bool quarantined = false;

    bool ok() const { return !error.valid(); }
};

/** Per-cell survivability policy for mapHardened. */
struct CellPolicy
{
    /** Cooperative watchdog budget per *attempt*; <= 0 disables. */
    double timeoutSeconds = 0.0;
    /** Max retries after the first attempt, for transient-classed
     *  errors only (errCodeTransient). */
    int maxRetries = 0;
    /** Quarantine failing cells instead of aborting the sweep. */
    bool keepGoing = false;
};

/** Sweep-wide survivability accounting; the ssim_sweep_* metric
 *  counters are read from these fields. */
struct HardeningTotals
{
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t degraded = 0;
};

/** Result of a hardened sweep: index-ordered outcomes plus totals. */
template <typename T>
struct HardenedSweep
{
    std::vector<CellOutcome<T>> cells;
    HardeningTotals totals;
};

/** Record that the current cell attempt degraded to live timing
 *  because its recorded trace was not replayable (called from
 *  TraceCache::timedRun's fallback path; no-op outside a hardened
 *  cell). */
void noteDegradedCell();

namespace detail {

/** Clear / read the thread-local degraded flag around one attempt. */
void beginCellAttempt();
bool cellAttemptDegraded();

/** Sleep the exponential-backoff delay (deterministic jitter from
 *  (cell, attempt), ~1-100 ms) before a retry. */
void backoffBeforeRetry(std::size_t cell, int attempt);

} // namespace detail

/**
 * A fixed worker pool over an atomic-index work queue.  Stateless
 * between run() calls; cheap to construct.  jobs == 1 degenerates to
 * a plain serial loop on the calling thread, which is the reference
 * behaviour parallel runs must reproduce bit-for-bit.
 */
class SweepRunner
{
  public:
    /** @param jobs Worker count; <= 0 resolves via defaultSweepJobs. */
    explicit SweepRunner(int jobs = 0);

    int jobs() const { return jobs_; }

    /**
     * Evaluate fn(0) .. fn(count-1), each exactly once, across the
     * pool (the calling thread participates).  The first exception
     * thrown by any cell stops the sweep and is rethrown here after
     * all workers have joined.
     */
    void run(std::size_t count,
             const std::function<void(std::size_t)> &fn) const;

    /**
     * run() collecting fn(i) into slot i of the result vector — the
     * deterministic merge point: results are index-ordered no matter
     * which worker computed them, so downstream table/trajectory
     * assembly is independent of the job count.
     */
    template <typename T, typename Fn>
    std::vector<T>
    map(std::size_t count, Fn &&fn) const
    {
        std::vector<T> out(count);
        run(count, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /**
     * Fault-isolated map: a throwing cell is captured as a CellError
     * in its own slot while every other cell still runs to
     * completion ("keep going").  Because errors are recorded at the
     * failing index rather than by arrival order, the result —
     * values and errors both — is deterministic across job counts.
     */
    template <typename T, typename Fn>
    std::vector<CellOutcome<T>>
    mapChecked(std::size_t count, Fn &&fn) const
    {
        std::vector<CellOutcome<T>> out(count);
        run(count, [&](std::size_t i) {
            try {
                out[i].value = fn(i);
            } catch (...) {
                out[i].error = currentCellError();
                noteCellFailure(out[i].error);
            }
        });
        return out;
    }

    /**
     * The survivable sweep: mapChecked plus per-attempt watchdog
     * deadlines, bounded retry with exponential backoff for
     * transient-classed errors (injected faults, memory pressure),
     * and quarantine of permanently failing cells.  Values stay
     * index-ordered and — because retried cells recompute the same
     * deterministic computation — byte-identical to a fault-free run.
     * Without keepGoing a quarantined cell aborts the sweep by
     * rethrowing (the fail-fast contract of run()).
     */
    template <typename T, typename Fn>
    HardenedSweep<T>
    mapHardened(std::size_t count, const CellPolicy &policy,
                Fn &&fn) const
    {
        HardenedSweep<T> out;
        out.cells.resize(count);
        std::atomic<std::uint64_t> retries{0}, timeouts{0},
            quarantined{0}, degraded{0};
        run(count, [&](std::size_t i) {
            CellOutcome<T> &slot = out.cells[i];
            for (int attempt = 0;; ++attempt) {
                std::exception_ptr raised;
                detail::beginCellAttempt();
                try {
                    cancel::ScopedCellDeadline watchdog(
                        policy.timeoutSeconds);
                    if (fault::enabled())
                        fault::maybeInject("cell");
                    slot.value = fn(i);
                } catch (...) {
                    raised = std::current_exception();
                    slot.error = currentCellError();
                }
                slot.attempts = attempt + 1;
                if (!raised) {
                    slot.error = {};
                    if (detail::cellAttemptDegraded()) {
                        slot.degraded = true;
                        degraded.fetch_add(1,
                                           std::memory_order_relaxed);
                    }
                    return;
                }
                if (slot.error.code ==
                    ErrCode::TrapDeadlineExceeded) {
                    timeouts.fetch_add(1, std::memory_order_relaxed);
                }
                if (errCodeTransient(slot.error.code) &&
                    attempt < policy.maxRetries) {
                    retries.fetch_add(1, std::memory_order_relaxed);
                    detail::backoffBeforeRetry(i, attempt);
                    continue;
                }
                slot.quarantined = true;
                quarantined.fetch_add(1, std::memory_order_relaxed);
                noteCellFailure(slot.error);
                if (!policy.keepGoing)
                    std::rethrow_exception(raised);
                return;
            }
        });
        out.totals.retries = retries.load();
        out.totals.timeouts = timeouts.load();
        out.totals.quarantined = quarantined.load();
        out.totals.degraded = degraded.load();
        return out;
    }

  private:
    int jobs_;
};

/**
 * A concurrency-safe cache of compiled workloads, in two levels.
 *
 * Only the list scheduler (and machine validation) reads the
 * machine: the frontend, the optimizer levels and register
 * allocation depend on the workload and the compile options alone.
 * So the cache keeps
 *   - a prefix level: the allocated, unscheduled module
 *     (compilePrefixChecked) and its telemetry, keyed by prefixKey()
 *     = workload identity (name + source hash) + compile options;
 *   - a machine level: a copy of that module scheduled and numbered
 *     for one machine (scheduleModule), keyed by key() = prefixKey()
 *     + every machine parameter the scheduler can observe (issue
 *     width, pipeline degree, latency table, functional units,
 *     branch-issue policy, register layout) — but *not* the
 *     machine's name, so renamed or re-labelled variants of one
 *     specification share a compilation.
 * At each level the first requester of a key computes it and
 * concurrent requesters block on the entry's future instead of
 * recomputing; a failed entry is evicted so a later request retries.
 * hits(), misses() and failures() count machine-level lookups.
 * Compile telemetry is captured once per machine-level miss and
 * handed to every requester, so stats snapshots do not depend on who
 * hit the cache: the prefix's phase records (with wall time zeroed
 * when another miss already ran the prefix) followed by "sched".
 */
class CompileCache
{
  public:
    /**
     * Compiled module for (workload, machine, options), compiling on
     * first use.  `telemetry`, when non-null, receives the telemetry
     * recorded by the (single) compilation of this key.
     */
    std::shared_ptr<const Module>
    compile(const Workload &workload, const MachineConfig &machine,
            const CompileOptions &options,
            CompileTelemetry *telemetry = nullptr);

    /** The machine-level cache key; exposed for tests and
     *  diagnostics, and the key of the trace and depgraph caches. */
    static std::string key(const Workload &workload,
                           const MachineConfig &machine,
                           const CompileOptions &options);
    /** The prefix-level key: key() without its machine fields. */
    static std::string prefixKey(const Workload &workload,
                                 const CompileOptions &options);

    /** Lookups served from an existing entry. */
    std::uint64_t hits() const { return machines_.hits.load(); }
    /** Lookups that had to compile. */
    std::uint64_t misses() const { return machines_.misses.load(); }
    /** Compilations that failed.  Failed entries are evicted (never
     *  cached), so a later request for the same key retries. */
    std::uint64_t failures() const
    {
        return machines_.failures.load();
    }
    /** Machine-independent prefixes compiled (prefix-level misses);
     *  at most misses(). */
    std::uint64_t prefixMisses() const
    {
        return prefixes_.misses.load();
    }
    /** Distinct compilations held. */
    std::size_t size() const;

    /** Export hit/miss/failure/size counters into a stats group. */
    void exportStats(stats::Group &g) const;

  private:
    struct Compiled
    {
        std::shared_ptr<const Module> module;
        CompileTelemetry telemetry;
    };

    /** One level's entries and lookup counters. */
    struct Level
    {
        std::map<std::string, std::shared_future<Compiled>> entries;
        std::atomic<std::uint64_t> hits{0};
        std::atomic<std::uint64_t> misses{0};
        std::atomic<std::uint64_t> failures{0};
    };

    /**
     * The once-per-key lookup both levels share.  The first requester
     * of `k` runs `make`; later requesters wait on its future.
     * `made`, when non-null, tells the caller which it was.  A failed
     * `make` is handed to the waiters parked on the entry and then
     * evicted.  Rethrows a failure, each caller its own copy.  The
     * returned value lives as long as the cache.
     */
    template <typename Make>
    const Compiled &lookup(Level &level, const std::string &k,
                           const std::string &name, Make &&make,
                           bool *made = nullptr);

    mutable std::mutex mu_;
    Level prefixes_;
    Level machines_;
};

} // namespace ilp

#endif // SUPERSYM_CORE_STUDY_SWEEP_HH
