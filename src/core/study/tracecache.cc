#include "core/study/tracecache.hh"

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <limits>

#include "core/study/sweep.hh"
#include "sim/trap.hh"
#include "support/faultinject.hh"
#include "support/logging.hh"
#include "support/trace.hh"

namespace ilp {

namespace {

/** A deadline or transient-fault trap belongs to one attempt, not to
 *  the module: it must fail the attempt, never be kept. */
bool
attemptTrap(const Trap &trap)
{
    return trap.valid() && (errCodeTransient(trap.code) ||
                            trap.code == ErrCode::TrapDeadlineExceeded);
}

} // namespace

bool
parseByteSize(const std::string &text, std::size_t &out)
{
    if (text.empty())
        return false;
    std::size_t shift = 0;
    std::string digits = text;
    switch (digits.back()) {
      case 'k':
      case 'K':
        shift = 10;
        break;
      case 'm':
      case 'M':
        shift = 20;
        break;
      case 'g':
      case 'G':
        shift = 30;
        break;
      default:
        break;
    }
    if (shift != 0)
        digits.pop_back();
    if (digits.empty())
        return false;
    std::size_t value = 0;
    for (char c : digits) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
        const std::size_t digit = static_cast<std::size_t>(c - '0');
        if (value > (std::numeric_limits<std::size_t>::max() - digit) / 10)
            return false;
        value = value * 10 + digit;
    }
    if (shift != 0 &&
        value > (std::numeric_limits<std::size_t>::max() >> shift))
        return false;
    out = value << shift;
    return true;
}

std::size_t
defaultTraceBudget()
{
    constexpr std::size_t kDefault = std::size_t{2} << 30; // 2 GiB
    if (const char *env = std::getenv("SSIM_TRACE_BUDGET");
        env && *env) {
        std::size_t bytes = 0;
        if (parseByteSize(env, bytes))
            return bytes;
        SS_WARN("SSIM_TRACE_BUDGET='", env,
                "' is not a byte size (digits with optional k/m/g "
                "suffix); using the 2 GiB default");
    }
    return kDefault;
}

void
TraceCache::setBudget(std::size_t bytes)
{
    std::lock_guard<std::mutex> lock(mu_);
    budget_ = bytes;
    evictLocked();
}

void
TraceCache::evictLocked()
{
    while (bytes_held_ > budget_) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (!it->second.ready)
                continue;
            if (victim == entries_.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == entries_.end())
            return; // nothing ready to evict; in-flight bytes settle later
        bytes_held_ -= victim->second.bytes;
        entries_.erase(victim);
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

RunOutcome
TraceCache::timedRun(const std::string &key, const Module &module,
                     const MachineConfig &machine,
                     const RunTelemetryOptions &telemetry,
                     const CompileTelemetry *compile)
{
    bool live = false;
    bool first = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        live = budget_ == 0;
        first = !live && timed_.insert(key).second;
    }
    if (live)
        return runOnMachine(module, machine, telemetry, compile);

    if (!first) {
        std::shared_ptr<const TraceArtifact> artifact =
            execute(key, module);
        if (artifact->replayable)
            return timeTrace(*artifact, machine, telemetry, compile);
        // Graceful degradation under memory pressure / non-packable
        // traces: the timing still completes live; hardened sweeps
        // count the cell as degraded rather than failed.
        fallbacks_.fetch_add(1, std::memory_order_relaxed);
        noteDegradedCell();
        return runOnMachine(module, machine, telemetry, compile);
    }

    // First timing of the key: nothing shows it will be reused yet,
    // so time it live and record nothing.
    misses_.fetch_add(1, std::memory_order_relaxed);
    try {
        if (fault::enabled())
            fault::maybeInject("execute");
        RunOutcome out =
            runOnMachine(module, machine, telemetry, compile);
        if (attemptTrap(out.trap))
            throw TrapException(out.trap);
        return out;
    } catch (...) {
        // The attempt did not time the key: a retry is a first
        // timing again.
        std::lock_guard<std::mutex> lock(mu_);
        timed_.erase(key);
        throw;
    }
}

std::shared_ptr<const TraceArtifact>
TraceCache::execute(const std::string &key, const Module &module)
{
    std::shared_future<Artifact> future;
    std::shared_ptr<std::promise<Artifact>> fill;
    std::size_t cap = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it == entries_.end()) {
            fill = std::make_shared<std::promise<Artifact>>();
            Entry e;
            e.future = fill->get_future().share();
            e.lastUse = ++use_clock_;
            future = e.future;
            entries_.emplace(key, std::move(e));
            cap = budget_;
        } else {
            it->second.lastUse = ++use_clock_;
            future = it->second.future;
        }
    }

    if (fill) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        try {
            if (fault::enabled())
                fault::maybeInject("execute");
            // Cap recording at the whole budget: a trace that cannot
            // fit even an empty cache becomes non-replayable rather
            // than blowing past the budget.
            auto art = std::make_shared<const TraceArtifact>(
                executeWorkload(module, cap));
            // Caching an attempt's trap would poison every later
            // request (including untimed resumes), so it propagates
            // as a failure and the entry is evicted — the retry
            // re-executes.  Genuine workload traps stay cached as
            // non-replayable artifacts (live fallback).
            if (attemptTrap(art->result.trap))
                throw TrapException(art->result.trap);
            if (fault::enabled())
                fault::maybeInject("tracecache.insert");
            const std::size_t bytes = art->byteSize();
            fill->set_value(std::move(art));
            const bool forced_evict =
                fault::enabled() &&
                fault::shouldEvict("tracecache.evict");
            std::lock_guard<std::mutex> lock(mu_);
            auto it = entries_.find(key);
            if (it != entries_.end()) {
                if (forced_evict) {
                    // Chaos: drop the entry immediately.  Waiters
                    // already share the artifact via the future;
                    // later requesters re-execute, exactly as after
                    // a budget eviction.
                    entries_.erase(it);
                    evictions_.fetch_add(1,
                                         std::memory_order_relaxed);
                } else {
                    it->second.bytes = bytes;
                    it->second.ready = true;
                    bytes_held_ += bytes;
                    evictLocked();
                }
            }
        } catch (...) {
            // Mirror CompileCache: hand the exception to parked
            // waiters, then evict so later requesters retry.
            fill->set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mu_);
            entries_.erase(key);
        }
    } else {
        hits_.fetch_add(1, std::memory_order_relaxed);
        // Parked on another worker's in-flight execution: make the
        // wait visible on this worker's timeline.
        if (trace::active() &&
            future.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
            trace::ScopedSpan span("trace-wait", "cache");
            future.wait();
        }
    }

    return sharedGet(future); // rethrows a failed execution
}

std::size_t
TraceCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

std::size_t
TraceCache::bytesHeld() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_held_;
}

void
TraceCache::exportStats(stats::Group &g) const
{
    g.counter("hits", "lookups served from the cache").inc(hits());
    g.counter("misses", "lookups that executed").inc(misses());
    g.counter("evictions", "entries dropped to fit the byte budget")
        .inc(evictions());
    g.counter("fallbacks",
              "timings run live (recording not replayable)")
        .inc(fallbacks());
    g.counter("entries", "distinct executions held").inc(size());
    g.counter("bytes_held", "trace bytes accounted against the budget")
        .inc(bytesHeld());
}

} // namespace ilp
