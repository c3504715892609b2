/**
 * @file
 * ilp::metrics — the runtime-metrics export behind `ssim ilp/suite
 * --metrics-json/--metrics-prom`: counters, gauges and duration
 * summaries, rendered as one JSON object or as Prometheus text
 * exposition.
 *
 * Every exported event has exactly one owner, and the export only
 * reads it.  Cache and survivability counts are the atomics of the
 * objects that count them (CompileCache, TraceCache, HardeningTotals,
 * fault::injectedCount()); durations are flight-recorder spans
 * (support/trace.hh), summarised with exact nearest-rank quantiles.
 * The Registry below holds only the counters that have no other
 * owner (bytecode fallbacks, journal records, dependence-graph builds,
 * what-if queries, prune cells, failed cells); sweepMetrics in
 * core/study/telemetry.hh assembles a Snapshot from all of them after
 * the sweep.
 *
 * How this differs from ilp::stats: a stats Registry is built per
 * *run* and frozen into the RunOutcome snapshot, so it must be
 * byte-deterministic across job counts; metrics are *operational*
 * totals of one sweep (how many cells ran, how long compiles took,
 * cache hit rates) and carry wall-clock durations.
 *
 * Concurrency: Counter::inc is one relaxed atomic, no lock.
 * Registration (find-or-create by name) takes a mutex and is meant to
 * happen once per call site via a static reference.
 */

#ifndef SUPERSYM_SUPPORT_METRICS_HH
#define SUPERSYM_SUPPORT_METRICS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/json.hh"

namespace ilp::metrics {

/** Monotonic event count.  inc() is one relaxed fetch_add. */
class Counter
{
  public:
    Counter(std::string name, std::string help)
        : name_(std::move(name)), help_(std::move(help))
    {
    }

    const std::string &name() const { return name_; }
    const std::string &help() const { return help_; }

    void inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::string name_;
    std::string help_;
    std::atomic<std::uint64_t> value_{0};
};

/**
 * The process-wide counters with no other owner.  Counters are
 * created on first request and live forever; returned references are
 * stable, so call sites cache them in a static and pay only the
 * atomic update per event.
 */
class Registry
{
  public:
    /** The global registry (what the CLI exports). */
    static Registry &global();

    Counter &counter(const std::string &name,
                     const std::string &help = "");

    /** Every registered counter, in registration order. */
    std::vector<const Counter *> counters() const;

    /** Zero every counter (keeps registrations so cached references
     *  stay valid). */
    void reset();

  private:
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Counter>> counters_;
};

/** Count, sum and exact nearest-rank quantiles of a sample set. */
struct Summary
{
    std::uint64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;

    /** Summarise `samples` (all zero when empty).  The q-quantile is
     *  the ceil(q * n)-th smallest sample. */
    static Summary of(std::vector<double> samples);
};

/**
 * One metrics export: named values in insertion order, each typed
 * as a Prometheus counter, gauge or summary.
 */
class Snapshot
{
  public:
    void counter(const std::string &name, const std::string &help,
                 std::uint64_t value);
    void gauge(const std::string &name, const std::string &help,
               double value);
    void summary(const std::string &name, const std::string &help,
                 const Summary &value);
    /** Add every counter of `registry`. */
    void add(const Registry &registry);

    /** name -> {type, help, value}; a summary's value is
     *  {count, sum, p50, p90, p99}. */
    Json json() const;

    /**
     * Prometheus text exposition format (version 0.0.4): HELP/TYPE
     * comments plus one sample line per value, summaries with
     * p50/p90/p99 quantile labels and _sum/_count lines.
     */
    std::string prometheus() const;

  private:
    struct Entry
    {
        std::string name;
        std::string help;
        const char *type = "";
        double value = 0.0;
        Summary summary;
    };
    std::vector<Entry> entries_;
};

} // namespace ilp::metrics

#endif // SUPERSYM_SUPPORT_METRICS_HH
