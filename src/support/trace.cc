#include "support/trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

namespace ilp::trace {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kNoTrack = 0xffffffffu;

/**
 * Per-thread span storage.  Owned jointly by the recording thread
 * (thread_local shared_ptr) and the recorder's registry, so a worker
 * thread may exit before the session is drained without losing its
 * spans.  Only its owning thread writes to it while a session runs;
 * the drain happens after workers join (happens-before via join).
 */
struct ThreadBuffer
{
    std::vector<Span> spans;
    std::uint32_t track = kNoTrack;
    std::string label;
    std::uint64_t session = 0;
};

struct RecorderState
{
    std::atomic<bool> active{false};
    std::atomic<std::uint64_t> session{0};
    Clock::time_point epoch;
    std::mutex mu;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

RecorderState &
state()
{
    static RecorderState s;
    return s;
}

thread_local std::shared_ptr<ThreadBuffer> tls_buffer;
thread_local ScopedSpan *tls_current_span = nullptr;

/** The calling thread's buffer for the current session, registering
 *  (and resetting a stale one) on first use. */
ThreadBuffer &
ensureBuffer()
{
    RecorderState &s = state();
    const std::uint64_t session =
        s.session.load(std::memory_order_acquire);
    if (!tls_buffer || tls_buffer->session != session) {
        if (!tls_buffer)
            tls_buffer = std::make_shared<ThreadBuffer>();
        tls_buffer->spans.clear();
        tls_buffer->track = kNoTrack;
        tls_buffer->label.clear();
        tls_buffer->session = session;
        std::lock_guard<std::mutex> lock(s.mu);
        s.buffers.push_back(tls_buffer);
    }
    return *tls_buffer;
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

std::int64_t
epochNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               state().epoch.time_since_epoch())
        .count();
}

} // namespace

bool
active()
{
    return state().active.load(std::memory_order_relaxed);
}

void
annotateCurrentSpan(const std::string &detail)
{
    if (tls_current_span)
        tls_current_span->detail(detail);
}

void
setThreadTrack(std::uint32_t track, const std::string &label)
{
    if (!active())
        return;
    ThreadBuffer &buf = ensureBuffer();
    buf.track = track;
    buf.label = label;
}

// ----------------------------------------------------------- ScopedSpan

ScopedSpan::ScopedSpan(const char *name, const char *cat)
{
    if (!active())
        return;
    armed_ = true;
    name_ = name;
    cat_ = cat;
    startNs_ = nowNs();
    parent_ = tls_current_span;
    tls_current_span = this;
}

ScopedSpan::~ScopedSpan()
{
    if (!armed_)
        return;
    tls_current_span = parent_;
    if (!active())
        return; // session ended mid-span; drop it
    const std::int64_t endNs = nowNs();
    ThreadBuffer &buf = ensureBuffer();
    Span s;
    s.name = name_;
    s.cat = cat_;
    s.detail = std::move(detail_);
    s.startUs = static_cast<double>(startNs_ - epochNs()) / 1000.0;
    s.durUs = static_cast<double>(endNs - startNs_) / 1000.0;
    buf.spans.push_back(std::move(s));
}

void
ScopedSpan::detail(const std::string &d)
{
    if (!armed_)
        return;
    if (detail_.empty()) {
        detail_ = d;
    } else {
        detail_ += ' ';
        detail_ += d;
    }
}

// ------------------------------------------------------------- Recorder

Recorder &
Recorder::instance()
{
    static Recorder r;
    return r;
}

void
Recorder::start()
{
    RecorderState &s = state();
    {
        std::lock_guard<std::mutex> lock(s.mu);
        s.buffers.clear();
    }
    s.epoch = Clock::now();
    s.session.fetch_add(1, std::memory_order_release);
    s.active.store(true, std::memory_order_release);
}

Recording
Recorder::stop()
{
    RecorderState &s = state();
    s.active.store(false, std::memory_order_release);

    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard<std::mutex> lock(s.mu);
        buffers.swap(s.buffers);
    }

    Recording rec;
    // Labelled tracks keep their worker ids; unlabelled threads get
    // tracks after the highest labelled one, in registration order.
    std::uint32_t next_track = 0;
    for (const auto &buf : buffers) {
        if (buf->track != kNoTrack && buf->track + 1 > next_track)
            next_track = buf->track + 1;
    }
    for (const auto &buf : buffers) {
        std::uint32_t track = buf->track;
        std::string label = buf->label;
        if (track == kNoTrack) {
            track = next_track++;
            label = "thread " + std::to_string(track);
        }
        rec.tracks.emplace_back(track, std::move(label));
        for (const Span &span : buf->spans) {
            rec.spans.push_back(span);
            rec.spans.back().track = track;
        }
    }
    std::sort(rec.tracks.begin(), rec.tracks.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    // Duplicate track ids (the same worker slot across several
    // SweepRunner::run calls) collapse to one metadata entry.
    rec.tracks.erase(
        std::unique(rec.tracks.begin(), rec.tracks.end(),
                    [](const auto &a, const auto &b) {
                        return a.first == b.first;
                    }),
        rec.tracks.end());
    std::stable_sort(rec.spans.begin(), rec.spans.end(),
                     [](const Span &a, const Span &b) {
                         if (a.track != b.track)
                             return a.track < b.track;
                         if (a.startUs != b.startUs)
                             return a.startUs < b.startUs;
                         return a.durUs > b.durUs;
                     });
    return rec;
}

} // namespace ilp::trace
