#include "core/study/telemetry.hh"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string_view>

#include "core/study/experiment.hh"
#include "core/study/sweep.hh"
#include "support/buildinfo.hh"
#include "support/faultinject.hh"
#include "support/logging.hh"

namespace ilp {

namespace {

Json
completeEvent(const std::string &name, const std::string &cat,
              double ts_us, double dur_us, int pid, int tid)
{
    Json e = Json::object();
    e.set("name", Json(name));
    e.set("cat", Json(cat));
    e.set("ph", Json("X"));
    e.set("ts", Json(ts_us));
    e.set("dur", Json(dur_us));
    e.set("pid", Json(pid));
    e.set("tid", Json(tid));
    return e;
}

Json
metadataEvent(const std::string &name, int pid, int tid,
              const std::string &label)
{
    Json args = Json::object();
    args.set("name", Json(label));
    Json e = Json::object();
    e.set("name", Json(name));
    e.set("ph", Json("M"));
    e.set("pid", Json(pid));
    e.set("tid", Json(tid));
    e.set("args", std::move(args));
    return e;
}

/** Every recorded span as a complete event on `pid`, with one named
 *  thread per recording track and the span's detail under args. */
void
appendSpanEvents(Json &events, const trace::Recording &recording,
                 int pid, const char *process)
{
    events.push(metadataEvent("process_name", pid, 0, process));
    for (const auto &[track, label] : recording.tracks) {
        events.push(metadataEvent("thread_name", pid,
                                  static_cast<int>(track), label));
    }
    for (const trace::Span &span : recording.spans) {
        Json e = completeEvent(span.name, span.cat, span.startUs,
                               span.durUs, pid,
                               static_cast<int>(span.track));
        if (!span.detail.empty()) {
            Json args = Json::object();
            args.set("detail", Json(span.detail));
            e.set("args", std::move(args));
        }
        events.push(std::move(e));
    }
}

/** The provenance block of a trace document's otherData. */
Json
traceMeta(const MachineConfig &machine)
{
    Json meta = buildMeta();
    meta.set("machine", Json(machine.name));
    meta.set("machine_hash",
             Json(std::to_string(machine.specHash())));
    return meta;
}

Json
traceDocument(Json events, Json meta)
{
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", Json("ms"));
    doc.set("otherData", std::move(meta));
    return doc;
}

/** A duration summary read from the recorded spans of one name.
 *  The first entry is the sweep cell, whose span count is also the
 *  cell counter. */
struct SpanSummary
{
    const char *span;
    const char *metric;
    const char *help;
};

constexpr SpanSummary kSpanSummaries[] = {
    {"cell", "ssim_sweep_cell_seconds",
     "Wall-clock seconds per sweep cell."},
    {"compile", "ssim_compile_seconds",
     "Wall-clock seconds per workload compilation."},
    {"live_run", "ssim_live_run_seconds",
     "Wall-clock seconds per live (non-replay) timing run."},
    {"execute", "ssim_execute_seconds",
     "Wall-clock seconds per functional execution."},
    {"replay", "ssim_replay_seconds",
     "Wall-clock seconds per timing replay of a cached trace."},
    {"bytecode_lower", "ssim_bytecode_lower_seconds",
     "wall time lowering a module to bytecode"},
    {"depgraph_build", "ssim_depgraph_build_seconds",
     "Wall-clock seconds per dependence-graph build."},
};

} // namespace

Json
buildTraceEvents(const RunOutcome &outcome,
                 const MachineConfig &machine,
                 const trace::Recording &recording)
{
    constexpr int kPipelinePid = 1;
    constexpr int kIssuePid = 2;

    Json events = Json::array();
    appendSpanEvents(events, recording, kPipelinePid, "pipeline");
    events.push(metadataEvent("process_name", kIssuePid, 0, "issue"));

    // Issue timeline: one tid per issue slot; one simulated minor
    // cycle = 1us of trace time, duration = operation latency.
    bool slot_named[64] = {};
    for (const auto &ev : outcome.issueTimeline) {
        const int tid = static_cast<int>(ev.slot);
        if (tid >= 0 && tid < 64 && !slot_named[tid]) {
            slot_named[tid] = true;
            events.push(metadataEvent(
                "thread_name", kIssuePid, tid,
                "slot " + std::to_string(tid)));
        }
        events.push(completeEvent(
            std::string(instrClassName(ev.cls)), "issue",
            static_cast<double>(ev.cycle),
            static_cast<double>(ev.latencyMinor), kIssuePid, tid));
    }

    Json meta = traceMeta(machine);
    meta.set("issueWidth", Json(machine.issueWidth));
    meta.set("pipelineDegree", Json(machine.pipelineDegree));
    meta.set("timelineDropped", Json(outcome.timelineDropped));
    return traceDocument(std::move(events), std::move(meta));
}

Json
buildSweepTraceEvents(const trace::Recording &recording,
                      const MachineConfig &machine)
{
    Json events = Json::array();
    appendSpanEvents(events, recording, 1, "sweep");
    Json meta = traceMeta(machine);
    meta.set("spans",
             Json(static_cast<std::uint64_t>(recording.spans.size())));
    meta.set("workers",
             Json(static_cast<std::uint64_t>(recording.tracks.size())));
    return traceDocument(std::move(events), std::move(meta));
}

metrics::Snapshot
sweepMetrics(const Study &study, const HardeningTotals &totals,
             const trace::Recording &recording)
{
    constexpr std::size_t kSummaries = std::size(kSpanSummaries);
    std::vector<double> seconds[kSummaries];
    for (const trace::Span &span : recording.spans) {
        for (std::size_t i = 0; i < kSummaries; ++i) {
            if (std::string_view(span.name) == kSpanSummaries[i].span)
                seconds[i].push_back(span.durUs / 1e6);
        }
    }

    const CompileCache &cc = study.compileCache();
    const TraceCache &tc = study.traceCache();
    metrics::Snapshot s;
    s.counter("ssim_sweep_cells_total", "Sweep cells evaluated.",
              seconds[0].size());
    s.counter("ssim_compile_cache_hits_total",
              "Compile-cache lookups served from an existing entry.",
              cc.hits());
    s.counter("ssim_compile_cache_misses_total",
              "Compile-cache lookups that had to compile.",
              cc.misses());
    s.counter("ssim_compile_cache_failures_total",
              "Compilations that failed (entry evicted).",
              cc.failures());
    s.counter("ssim_trace_cache_hits_total",
              "Trace-cache lookups served from a recording (replays).",
              tc.hits());
    s.counter("ssim_trace_cache_misses_total",
              "Trace-cache lookups that executed, live or recorded.",
              tc.misses());
    s.counter("ssim_trace_cache_evictions_total",
              "Trace-cache entries dropped to fit the byte budget.",
              tc.evictions());
    s.counter("ssim_trace_cache_fallbacks_total",
              "Timings run live because their recording was not "
              "replayable.",
              tc.fallbacks());
    s.gauge("ssim_trace_cache_bytes",
            "Trace bytes currently accounted against the budget.",
            static_cast<double>(tc.bytesHeld()));
    s.counter("ssim_depgraph_builds_total",
              "Dependence graphs constructed from a trace or live run.",
              study.graphCache().builds());
    s.counter("ssim_sweep_cell_retries_total",
              "Transient-fault cell retries under hardened sweeps.",
              totals.retries);
    s.counter("ssim_sweep_cell_timeouts_total",
              "Cell attempts cancelled by the watchdog deadline.",
              totals.timeouts);
    s.counter("ssim_sweep_cells_quarantined_total",
              "Cells isolated after permanent failure or retry "
              "exhaustion.",
              totals.quarantined);
    s.counter("ssim_sweep_cells_degraded_total",
              "Cells that completed via live-interpretation fallback.",
              totals.degraded);
    s.counter("ssim_faults_injected_total",
              "Faults fired by the SSIM_FAULT injection registry.",
              fault::injectedCount());
    for (std::size_t i = 0; i < kSummaries; ++i) {
        s.summary(kSpanSummaries[i].metric, kSpanSummaries[i].help,
                  metrics::Summary::of(std::move(seconds[i])));
    }
    s.add(metrics::Registry::global());
    return s;
}

void
writeJsonFile(const std::string &path, const Json &doc)
{
    // Temp-and-rename: rename(2) is atomic within a filesystem, so
    // consumers polling `path` (dashboards, resume tooling) never
    // observe a torn document, and a crash mid-write leaves the old
    // file intact.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            SS_FATAL("cannot open '", tmp, "' for writing");
        out << doc.dump(2) << "\n";
        out.flush();
        if (!out)
            SS_FATAL("write to '", tmp, "' failed");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        SS_FATAL("cannot rename '", tmp, "' to '", path, "'");
}

} // namespace ilp
