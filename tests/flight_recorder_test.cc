/**
 * @file
 * The observability layer end to end: metrics (registry counters,
 * exact span summaries, JSON and Prometheus exposition), the span
 * flight recorder (nested spans, worker tracks, concurrent recording
 * — run under TSan in CI), the sweep trace-events writer, the sweep
 * metrics export read from each event's owner, keep-going degradation
 * (a trapped cell annotates its span instead of truncating the worker
 * timeline), and the live progress reporter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/machine/models.hh"
#include "core/study/experiment.hh"
#include "core/study/progress.hh"
#include "core/study/sweep.hh"
#include "core/study/telemetry.hh"
#include "support/diag.hh"
#include "support/faultinject.hh"
#include "support/metrics.hh"
#include "support/trace.hh"

using namespace ilp;

namespace {

// -------------------------------------------------- registry plumbing

TEST(MetricsRegistryTest, CountersAndLookupStability)
{
    metrics::Registry reg;
    metrics::Counter &c = reg.counter("a_total", "help a");
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    // Same name returns the same instance.
    EXPECT_EQ(&reg.counter("a_total"), &c);
    ASSERT_EQ(reg.counters().size(), 1u);
    EXPECT_EQ(reg.counters()[0], &c);

    reg.reset();
    EXPECT_EQ(c.value(), 0u);
}

// --------------------------------------------------- snapshot export

TEST(MetricsSnapshotTest, SummaryQuantilesAreExactNearestRank)
{
    // 1..100 shuffled: the q-quantile is the ceil(100 q)-th smallest.
    std::vector<double> samples;
    for (int i = 100; i >= 1; --i)
        samples.push_back(static_cast<double>((i * 37) % 100 + 1));
    const metrics::Summary s = metrics::Summary::of(samples);
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.sum, 5050.0);
    EXPECT_DOUBLE_EQ(s.p50, 50.0);
    EXPECT_DOUBLE_EQ(s.p90, 90.0);
    EXPECT_DOUBLE_EQ(s.p99, 99.0);

    const metrics::Summary one = metrics::Summary::of({2.5});
    EXPECT_EQ(one.count, 1u);
    EXPECT_DOUBLE_EQ(one.p50, 2.5);
    EXPECT_DOUBLE_EQ(one.p99, 2.5);

    const metrics::Summary none = metrics::Summary::of({});
    EXPECT_EQ(none.count, 0u);
    EXPECT_DOUBLE_EQ(none.sum, 0.0);
    EXPECT_DOUBLE_EQ(none.p99, 0.0);
}

TEST(MetricsSnapshotTest, PrometheusExpositionShape)
{
    metrics::Snapshot snap;
    snap.counter("ssim_x_total", "Things counted.", 3);
    snap.gauge("ssim_bytes", "Bytes held.", 128);
    snap.summary("ssim_t_seconds", "Durations.",
                 metrics::Summary::of({2.0}));

    const std::string text = snap.prometheus();
    EXPECT_NE(text.find("# HELP ssim_x_total Things counted.\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE ssim_x_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("ssim_x_total 3\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE ssim_bytes gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("ssim_bytes 128\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE ssim_t_seconds summary\n"),
              std::string::npos);
    EXPECT_NE(text.find("ssim_t_seconds{quantile=\"0.99\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("ssim_t_seconds_sum 2\n"), std::string::npos);
    EXPECT_NE(text.find("ssim_t_seconds_count 1\n"),
              std::string::npos);
}

TEST(MetricsSnapshotTest, JsonSnapshotRoundTrips)
{
    metrics::Registry reg;
    reg.counter("c_total", "c help").inc(2);
    metrics::Snapshot snap;
    snap.add(reg);
    snap.summary("h_seconds", "", metrics::Summary::of({1.0}));
    const Json doc = snap.json();
    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::tryParse(doc.dump(2), parsed, &error)) << error;
    ASSERT_NE(parsed.at("c_total.type"), nullptr);
    EXPECT_EQ(parsed.at("c_total.type")->asString(), "counter");
    EXPECT_EQ(parsed.at("c_total.help")->asString(), "c help");
    EXPECT_EQ(parsed.at("c_total.value")->asNumber(), 2.0);
    EXPECT_EQ(parsed.at("h_seconds.type")->asString(), "summary");
    EXPECT_EQ(parsed.at("h_seconds.value.count")->asNumber(), 1.0);
    EXPECT_EQ(parsed.at("h_seconds.value.p90")->asNumber(), 1.0);
}

// ------------------------------------------------------ span recorder

TEST(FlightRecorderTest, InactiveSessionRecordsNothing)
{
    {
        trace::ScopedSpan span("idle", "test");
        EXPECT_FALSE(span.armed());
    }
    trace::Recorder::instance().start();
    trace::Recording rec = trace::Recorder::instance().stop();
    EXPECT_TRUE(rec.spans.empty());
}

TEST(FlightRecorderTest, NestedSpansAndDetailAnnotation)
{
    trace::Recorder::instance().start();
    {
        trace::ScopedSpan outer("outer", "test");
        ASSERT_TRUE(outer.armed());
        {
            trace::ScopedSpan inner("inner", "test");
            trace::annotateCurrentSpan("tagged");
            trace::annotateCurrentSpan("twice");
        }
        // After inner closes, annotations land on outer again.
        trace::annotateCurrentSpan("outer-tag");
    }
    trace::Recording rec = trace::Recorder::instance().stop();
    ASSERT_EQ(rec.spans.size(), 2u);
    // Spans are sorted longest-first at equal track; outer encloses
    // inner so outer sorts first.
    EXPECT_STREQ(rec.spans[0].name, "outer");
    EXPECT_EQ(rec.spans[0].detail, "outer-tag");
    EXPECT_STREQ(rec.spans[1].name, "inner");
    EXPECT_EQ(rec.spans[1].detail, "tagged twice");
    EXPECT_GE(rec.spans[1].startUs, rec.spans[0].startUs);
    EXPECT_LE(rec.spans[1].durUs, rec.spans[0].durUs);
}

TEST(FlightRecorderTest, SweepLabelsOneTrackPerWorker)
{
    for (int jobs : {1, 4}) {
        trace::Recorder::instance().start();
        SweepRunner runner(jobs);
        runner.run(16, [](std::size_t) {
            trace::ScopedSpan span("work", "test");
        });
        trace::Recording rec = trace::Recorder::instance().stop();
        // 16 cell spans (from SweepRunner) + 16 work spans.
        EXPECT_EQ(rec.spans.size(), 32u);
        ASSERT_FALSE(rec.tracks.empty());
        EXPECT_LE(rec.tracks.size(), static_cast<std::size_t>(jobs));
        EXPECT_EQ(rec.tracks[0].first, 0u);
        EXPECT_EQ(rec.tracks[0].second, "worker 0");
        for (const trace::Span &s : rec.spans) {
            EXPECT_LT(s.track, static_cast<std::uint32_t>(jobs));
        }
    }
}

TEST(FlightRecorderTest, ConcurrentSpansAndCountersAreSafe)
{
    // The TSan CI job runs this test: many workers recording spans
    // and bumping one counter at once, twice, to cover session reuse.
    metrics::Registry &reg = metrics::Registry::global();
    metrics::Counter &c = reg.counter("test_concurrent_total");
    c.reset();
    for (int round = 0; round < 2; ++round) {
        trace::Recorder::instance().start();
        SweepRunner runner(8);
        runner.run(256, [&](std::size_t i) {
            trace::ScopedSpan span("work", "test");
            if (span.armed())
                span.detail(std::to_string(i));
            c.inc();
        });
        trace::Recording rec = trace::Recorder::instance().stop();
        EXPECT_EQ(rec.spans.size(), 512u);
    }
    EXPECT_EQ(c.value(), 512u);
}

TEST(FlightRecorderTest, SweepTraceEventsDocumentShape)
{
    trace::Recorder::instance().start();
    SweepRunner runner(2);
    runner.run(4, [](std::size_t) {
        trace::ScopedSpan span("work", "test");
        if (span.armed())
            span.detail("w");
    });
    trace::Recording rec = trace::Recorder::instance().stop();
    const Json doc = buildSweepTraceEvents(rec, idealSuperscalar(4));

    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::tryParse(doc.dump(2), parsed, &error)) << error;
    const Json *events = parsed.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::size_t complete = 0, threadNames = 0;
    for (const Json &e : events->asArray()) {
        const std::string ph = e.find("ph")->asString();
        if (ph == "X") {
            ++complete;
            EXPECT_TRUE(e.find("ts")->isNumber());
            EXPECT_TRUE(e.find("dur")->isNumber());
        } else if (ph == "M" &&
                   e.find("name")->asString() == "thread_name") {
            ++threadNames;
        }
    }
    EXPECT_EQ(complete, rec.spans.size());
    EXPECT_EQ(threadNames, rec.tracks.size());
    ASSERT_NE(parsed.at("otherData.machine"), nullptr);
    EXPECT_TRUE(parsed.at("otherData.machine")->isString());
}

// ------------------------------------- keep-going degrades gracefully

TEST(FlightRecorderTest, KeepGoingCellAnnotatesSpanWithErrorCode)
{
    // A trapped cell must stamp its E-code on the cell span and leave
    // the worker timeline intact — same cell spans as an all-good
    // sweep, and the simulation results must match the untraced run.
    Workload bad{"bad", "malformed", "func main( { return 0; }", 0,
                 false, 1};
    auto sweep = [&](int jobs) {
        Study study(jobs);
        return study.runner().mapChecked<double>(
            4, [&](std::size_t i) {
                if (i == 2)
                    return study.speedup(bad, idealSuperscalar(2));
                return study.speedup(workloadByName("yacc"),
                                     idealSuperscalar(
                                         static_cast<int>(i) + 1));
            });
    };

    std::vector<CellOutcome<double>> untraced = sweep(8);

    trace::Recorder::instance().start();
    std::vector<CellOutcome<double>> traced = sweep(8);
    trace::Recording rec = trace::Recorder::instance().stop();

    ASSERT_EQ(traced.size(), untraced.size());
    for (std::size_t i = 0; i < traced.size(); ++i) {
        EXPECT_EQ(traced[i].ok(), untraced[i].ok()) << i;
        if (traced[i].ok())
            EXPECT_DOUBLE_EQ(traced[i].value, untraced[i].value) << i;
        else
            EXPECT_EQ(traced[i].error.code, untraced[i].error.code);
    }

    std::size_t cells = 0, annotated = 0;
    for (const trace::Span &s : rec.spans) {
        if (std::string(s.name) != "cell")
            continue;
        ++cells;
        if (s.detail.find("error[E") != std::string::npos)
            ++annotated;
    }
    EXPECT_EQ(cells, 4u); // the failed cell's span is NOT dropped
    EXPECT_EQ(annotated, 1u);
}

// ------------------------------------- the export reads its owners

TEST(MetricsExportTest, EveryMetricIsReadFromItsOwner)
{
    // A small hardened sweep, recorded: the exported counters must be
    // the values of the objects that own them, and every duration
    // summary must summarise exactly the recorded spans of its name.
    metrics::Registry::global().reset();
    Study study(4);
    const Workload &w = workloadByName("yacc");
    CellPolicy policy;
    policy.maxRetries = 2;
    policy.keepGoing = true;
    std::vector<std::atomic<int>> calls(6);

    trace::Recorder::instance().start();
    const HardenedSweep<double> hs = study.runner().mapHardened<double>(
        6, policy, [&](std::size_t i) {
            if (i == 4 && calls[i].fetch_add(1) == 0) {
                throw DiagException(
                    Diag{Severity::Error, ErrCode::TrapTransientFault,
                         "synthetic transient fault", {}});
            }
            return study.speedup(
                w, idealSuperscalar(static_cast<int>(i % 3) + 1));
        });
    const trace::Recording rec = trace::Recorder::instance().stop();
    ASSERT_EQ(hs.totals.retries, 1u);

    const Json doc = sweepMetrics(study, hs.totals, rec).json();
    // value("ssim_x_total") reads a counter or gauge,
    // value("ssim_y_seconds.p50") one field of a summary.
    auto value = [&](const std::string &path) {
        const std::size_t dot = path.find('.');
        const std::string name = path.substr(0, dot);
        const Json *v = doc.at(
            name + ".value" +
            (dot == std::string::npos ? "" : path.substr(dot)));
        EXPECT_NE(v, nullptr) << path;
        return v ? v->asNumber() : -1.0;
    };
    const auto count = [](std::uint64_t n) {
        return static_cast<double>(n);
    };
    EXPECT_EQ(value("ssim_compile_cache_hits_total"),
              count(study.compileCache().hits()));
    EXPECT_EQ(value("ssim_compile_cache_misses_total"),
              count(study.compileCache().misses()));
    EXPECT_EQ(value("ssim_compile_cache_failures_total"),
              count(study.compileCache().failures()));
    EXPECT_EQ(value("ssim_trace_cache_hits_total"),
              count(study.traceCache().hits()));
    EXPECT_EQ(value("ssim_trace_cache_misses_total"),
              count(study.traceCache().misses()));
    EXPECT_EQ(value("ssim_trace_cache_evictions_total"),
              count(study.traceCache().evictions()));
    EXPECT_EQ(value("ssim_trace_cache_fallbacks_total"),
              count(study.traceCache().fallbacks()));
    EXPECT_EQ(value("ssim_trace_cache_bytes"),
              count(study.traceCache().bytesHeld()));
    EXPECT_EQ(value("ssim_sweep_cell_retries_total"),
              count(hs.totals.retries));
    EXPECT_EQ(value("ssim_sweep_cell_timeouts_total"),
              count(hs.totals.timeouts));
    EXPECT_EQ(value("ssim_sweep_cells_quarantined_total"),
              count(hs.totals.quarantined));
    EXPECT_EQ(value("ssim_sweep_cells_degraded_total"),
              count(hs.totals.degraded));
    EXPECT_EQ(value("ssim_faults_injected_total"),
              count(fault::injectedCount()));
    EXPECT_EQ(value("ssim_sweep_cells_total"), 6.0);
    EXPECT_GT(value("ssim_compile_cache_misses_total"), 0.0);

    const std::pair<const char *, const char *> summaries[] = {
        {"cell", "ssim_sweep_cell_seconds"},
        {"compile", "ssim_compile_seconds"},
        {"live_run", "ssim_live_run_seconds"},
        {"execute", "ssim_execute_seconds"},
        {"replay", "ssim_replay_seconds"},
        {"bytecode_lower", "ssim_bytecode_lower_seconds"},
        {"depgraph_build", "ssim_depgraph_build_seconds"},
    };
    for (const auto &[span, metric] : summaries) {
        SCOPED_TRACE(metric);
        std::uint64_t spans = 0;
        double longest = 0.0;
        for (const trace::Span &s : rec.spans) {
            if (std::string(s.name) == span) {
                ++spans;
                longest = std::max(longest, s.durUs / 1e6);
            }
        }
        const std::string m = metric;
        EXPECT_EQ(doc.at(m + ".type")->asString(), "summary");
        EXPECT_EQ(value(m + ".count"), count(spans));
        const double p50 = value(m + ".p50");
        const double p90 = value(m + ".p90");
        const double p99 = value(m + ".p99");
        EXPECT_LE(p50, p90);
        EXPECT_LE(p90, p99);
        EXPECT_LE(p99, longest);
    }
    // The sweep compiled, executed and timed: the summaries are not
    // vacuous.
    EXPECT_EQ(value("ssim_sweep_cell_seconds.count"), 6.0);
    EXPECT_EQ(value("ssim_compile_seconds.count"),
              count(study.compileCache().misses()));
    EXPECT_GT(value("ssim_live_run_seconds.count"), 0.0);
}

// ------------------------------------------------------ live progress

TEST(ProgressReporterTest, RenderLineShowsRatesEtaAndFailures)
{
    Study study(2);
    study.speedup(workloadByName("yacc"), idealSuperscalar(2));

    ProgressReporter::Config pc;
    pc.totalCells = 8;
    pc.jobs = 2;
    pc.intervalMs = 1e9; // never auto-print during the test
    pc.compileCache = &study.compileCache();
    pc.traceCache = &study.traceCache();
    pc.out = tmpfile();
    ASSERT_NE(pc.out, nullptr);
    {
        ProgressReporter reporter(pc);
        EXPECT_EQ(ProgressReporter::current(), &reporter);
        reporter.cellFinished(0.5);
        reporter.cellFinished(0.5);
        reporter.noteFailure();
        EXPECT_EQ(reporter.cellsDone(), 2u);
        EXPECT_EQ(reporter.cellsFailed(), 1u);

        // Rate and ETA are asserted separately (EtaUsesTheTrailing
        // CompletionWindow) where the completion schedule is driven
        // deterministically; the two real completions above landed
        // microseconds apart, so their window rate is arbitrary.
        const std::string line = reporter.renderLine(2.0);
        EXPECT_NE(line.find("2/8 cells"), std::string::npos) << line;
        // 1.0 busy second over 2 workers * 2 elapsed seconds = 25%.
        EXPECT_NE(line.find("util 25%"), std::string::npos) << line;
        EXPECT_NE(line.find("compile-cache"), std::string::npos);
        EXPECT_NE(line.find("trace-cache"), std::string::npos);
        EXPECT_NE(line.find("failed 1"), std::string::npos) << line;
    }
    EXPECT_EQ(ProgressReporter::current(), nullptr);
    std::fclose(pc.out);
}

TEST(ProgressReporterTest, EtaUsesTheTrailingCompletionWindow)
{
    // Regression: the ETA used the whole-run average rate, so a slow
    // cold-cache start skewed the forecast for the rest of the sweep.
    // Drive the completion ring directly with a synthetic schedule —
    // 64 slow cells at 1 cell/s, then 64 fast ones at 10 cells/s —
    // and check the estimate converges to the recent rate within one
    // window of the regime change.  (done_ stays 0: only the stamp
    // ring feeds the rate, and `eta = remaining / rate` with the full
    // 198 cells remaining keeps the numbers round.)
    ProgressReporter::Config pc;
    pc.totalCells = 198;
    pc.jobs = 1;
    pc.intervalMs = 1e9;
    pc.out = tmpfile();
    ASSERT_NE(pc.out, nullptr);
    {
        ProgressReporter reporter(pc);
        for (int i = 1; i <= 64; ++i)
            reporter.noteCellAt(static_cast<double>(i)); // 1 cell/s
        std::string slow = reporter.renderLine(64.0);
        EXPECT_NE(slow.find("1.0 cells/s"), std::string::npos) << slow;
        EXPECT_NE(slow.find("eta 3m18s"), std::string::npos) << slow;

        for (int i = 1; i <= 64; ++i)
            reporter.noteCellAt(64.0 + 0.1 * i); // 10 cells/s
        // One full window after the speedup the slow start is out of
        // the estimate entirely: 63 intervals over 6.3 s, not the
        // 128-cells-in-70.4-s (1.8 cells/s) whole-run average.
        std::string fast = reporter.renderLine(70.4);
        EXPECT_NE(fast.find("10.0 cells/s"), std::string::npos) << fast;
        EXPECT_NE(fast.find("eta 20s"), std::string::npos) << fast;
    }
    std::fclose(pc.out);
}

TEST(ProgressReporterTest, WindowRateFallsBackBeforeTwoSamples)
{
    ProgressReporter::Config pc;
    pc.totalCells = 4;
    pc.jobs = 1;
    pc.intervalMs = 1e9;
    pc.out = tmpfile();
    ASSERT_NE(pc.out, nullptr);
    {
        ProgressReporter reporter(pc);
        // No completions at all: no rate, no ETA.
        std::string idle = reporter.renderLine(2.0);
        EXPECT_NE(idle.find("0.0 cells/s"), std::string::npos) << idle;
        EXPECT_NE(idle.find("eta -"), std::string::npos) << idle;
        // A single stamp cannot span a window: whole-run average.
        reporter.noteCellAt(1.0);
        std::string one = reporter.renderLine(2.0);
        EXPECT_NE(one.find("0.0 cells/s"), std::string::npos) << one;
    }
    std::fclose(pc.out);
}

TEST(ProgressReporterTest, SweepNotifiesInstalledReporter)
{
    ProgressReporter::Config pc;
    pc.totalCells = 12;
    pc.jobs = 4;
    pc.intervalMs = 1e9;
    pc.out = tmpfile();
    ASSERT_NE(pc.out, nullptr);
    {
        ProgressReporter reporter(pc);
        SweepRunner runner(4);
        runner.run(12, [](std::size_t) {});
        EXPECT_EQ(reporter.cellsDone(), 12u);
    }
    std::fclose(pc.out);
}

} // namespace
