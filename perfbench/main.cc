/**
 * perfbench: one seeded workload of the supersym benchmark, in its own
 * process, on one Study with one worker.
 *
 *   perfbench --workload paper-sweep|retime|whatif --seed N
 *             --seconds S --trace 0|1 [--reference PATH] [--out DIR]
 *   perfbench --record-reference [--reference PATH]
 *
 * Untraced repetitions (each a forked process) give the end-to-end
 * metrics, printed with --trace 0; --trace 1 then also replays the
 * same cells traced and prints the per-layer metrics instead.  The
 * last stdout line is the result object
 * {"correct", "attempted", "failed", "metrics"}.  run.py builds this
 * binary and invokes it; see README.md.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "core/study/experiment.hh"
#include "perfbench.hh"
#include "support/bench.hh"
#include "support/json.hh"

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/** Repetitions per run, each a process of its own that sets up and
 *  then times the cell list: five on paper-sweep, whose set-ups and
 *  passes are one sample each, four on the others. */
int
repetitionCount(WorkloadKind kind)
{
    return kind == WorkloadKind::PaperSweep ? 5 : 4;
}

/** Set-ups per repetition, each on a fresh Study; the pass runs on the
 *  last.  whatif's set-up is a fraction of a second, so it is timed
 *  several times; the others' take seconds. */
int
setupCount(WorkloadKind kind)
{
    return kind == WorkloadKind::Whatif ? 4 : 1;
}

/** Timed passes per repetition.  Only on retime does a pass leave the
 *  study as it found it (warm-up has compiled and executed every pair,
 *  and the cells' results are not cached), so only there can the same
 *  process time the cells again. */
int
passCount(WorkloadKind kind)
{
    return kind == WorkloadKind::Retime ? 3 : 1;
}

double
minimum(const std::vector<double> &values)
{
    return *std::min_element(values.begin(), values.end());
}

struct Args
{
    WorkloadKind kind = WorkloadKind::PaperSweep;
    std::uint64_t seed = 1;
    int seconds = 10;
    int trace = 0;
    std::string reference = "perfbench/reference.tsv";
    std::string out = ".bench_build/out";
    bool record = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper-sweep|retime|whatif --seed N --seconds S "
                 "--trace 0|1 [--reference PATH] [--out DIR]\n"
                 "       perfbench --record-reference [--reference "
                 "PATH]\n",
                 why.c_str());
    std::exit(2);
}

long
parseLong(const std::string &flag, const char *text, long lo, long hi)
{
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    if (!*text || *end || v < lo || v > hi)
        usage(flag + " wants an integer in [" + std::to_string(lo) +
              ", " + std::to_string(hi) + "]");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--record-reference") {
            a.record = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char *v = argv[++i];
        if (flag == "--workload") {
            if (!parseWorkload(v, &a.kind))
                usage(std::string("unknown workload ") + v);
            haveWorkload = true;
        } else if (flag == "--seed") {
            char *end = nullptr;
            errno = 0;
            a.seed = std::strtoull(v, &end, 10);
            if (!*v || *end || *v == '-' || errno == ERANGE)
                usage("--seed wants a non-negative 64-bit integer");
        } else if (flag == "--seconds") {
            a.seconds = static_cast<int>(parseLong(flag, v, 1, 3600));
        } else if (flag == "--trace") {
            a.trace = static_cast<int>(parseLong(flag, v, 0, 1));
        } else if (flag == "--reference") {
            a.reference = v;
        } else if (flag == "--out") {
            a.out = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!a.record && !haveWorkload)
        usage("--workload is required");
    return a;
}

/** What one repetition's process reports back. */
struct Repetition
{
    std::vector<double> setupS;
    std::vector<double> wallS;
    double peakRssMb = 0.0;
    std::uint64_t simInstructions = 0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** Per pass, each cell's time. */
    std::vector<std::vector<double>> cellMs;
};

/** The child's half: set up, time the passes, write the results. */
std::string
repetitionChild(WorkloadKind kind, std::uint64_t seed, std::size_t cells,
                const Context &ctx)
{
    std::vector<std::string> why;
    ilp::Json setups = ilp::Json::array();
    std::size_t warmFailures = 0;
    std::unique_ptr<ilp::Study> study;
    Plan plan;
    for (int s = 0; s < setupCount(kind); ++s) {
        study.reset();
        why.clear();
        const Clock::time_point t0 = Clock::now();
        plan = generate(kind, seed, cells);
        study = std::make_unique<ilp::Study>(1);
        warmFailures = warmUp(*study, plan, ctx, &why);
        setups.push(ilp::Json(
            std::chrono::duration<double>(Clock::now() - t0).count()));
    }
    for (const std::string &w : why)
        std::fprintf(stderr, "FAILED %s\n", w.c_str());

    ilp::Json walls = ilp::Json::array();
    ilp::Json passes = ilp::Json::array();
    std::uint64_t simInstructions = 0;
    std::size_t attempted = 0, failed = warmFailures;
    for (int p = 0; p < passCount(kind); ++p) {
        const PassResult pass = runPass(*study, plan, ctx);
        for (const std::string &w : pass.failures)
            std::fprintf(stderr, "FAILED %s\n", w.c_str());
        walls.push(ilp::Json(pass.wallSeconds));
        ilp::Json times = ilp::Json::array();
        for (double ms : pass.cellMs)
            times.push(ilp::Json(ms));
        passes.push(std::move(times));
        simInstructions = pass.simInstructions;
        attempted += pass.attempted;
        failed += pass.failed;
    }

    ilp::Json out = ilp::Json::object();
    out.set("setup_s", std::move(setups));
    out.set("wall_s", std::move(walls));
    out.set("sim_instructions", ilp::Json(simInstructions));
    out.set("attempted", ilp::Json(static_cast<std::uint64_t>(attempted)));
    out.set("failed", ilp::Json(static_cast<std::uint64_t>(failed)));
    out.set("cell_ms", std::move(passes));
    return out.dump();
}

/** Run one repetition in a forked process and collect its results;
 *  false (after a message) when the process cannot be run. */
bool
runRepetition(WorkloadKind kind, std::uint64_t seed, std::size_t cells,
              const Context &ctx, Repetition *rep)
{
    int fds[2];
    if (pipe(fds) != 0) {
        std::perror("perfbench: pipe");
        return false;
    }
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("perfbench: fork");
        return false;
    }
    if (pid == 0) {
        close(fds[0]);
        const std::string text = repetitionChild(kind, seed, cells, ctx);
        std::size_t done = 0;
        while (done < text.size()) {
            const ssize_t n =
                write(fds[1], text.data() + done, text.size() - done);
            if (n <= 0)
                _exit(3);
            done += static_cast<std::size_t>(n);
        }
        std::fflush(nullptr);
        _exit(0);
    }
    close(fds[1]);
    std::string text;
    char buf[65536];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof buf)) > 0)
        text.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    struct rusage ru;
    if (wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "perfbench: repetition process failed "
                             "(status %d)\n",
                     status);
        return false;
    }
    ilp::Json j;
    std::string error;
    if (!ilp::Json::tryParse(text, j, &error)) {
        std::fprintf(stderr, "perfbench: bad repetition report: %s\n",
                     error.c_str());
        return false;
    }
    for (const ilp::Json &s : j.find("setup_s")->asArray())
        rep->setupS.push_back(s.asNumber());
    for (const ilp::Json &s : j.find("wall_s")->asArray())
        rep->wallS.push_back(s.asNumber());
    rep->simInstructions = static_cast<std::uint64_t>(
        j.find("sim_instructions")->asNumber());
    rep->attempted =
        static_cast<std::size_t>(j.find("attempted")->asNumber());
    rep->failed = static_cast<std::size_t>(j.find("failed")->asNumber());
    for (const ilp::Json &pass : j.find("cell_ms")->asArray()) {
        rep->cellMs.emplace_back();
        for (const ilp::Json &ms : pass.asArray())
            rep->cellMs.back().push_back(ms.asNumber());
    }
    rep->peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return true;
}

int
recordReference(const Args &args)
{
    const std::vector<Pair> domain = referenceDomain();
    std::vector<RefEntry> entries(domain.size());
    std::vector<std::string> errors(domain.size());
    // A one-off recording: a few threads over independent pairs.
    const unsigned threads =
        std::max(1u, std::min(3u, std::thread::hardware_concurrency()));
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (std::size_t i = t; i < domain.size(); i += threads)
                recordEntry(domain[i], &entries[i], &errors[i]);
        });
    }
    for (std::thread &th : pool)
        th.join();

    Reference ref;
    int bad = 0;
    for (std::size_t i = 0; i < domain.size(); ++i) {
        if (!errors[i].empty()) {
            std::fprintf(stderr, "reference %s: %s\n",
                         domain[i].key().c_str(), errors[i].c_str());
            ++bad;
            continue;
        }
        ref.set(domain[i].key(), entries[i]);
    }
    if (bad)
        return 1;
    std::string error;
    if (!ref.save(args.reference, &error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return 1;
    }
    std::fprintf(stderr, "recorded %zu reference entries to %s\n",
                 ref.size(), args.reference.c_str());
    return 0;
}

void
writeFile(const std::filesystem::path &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    if (!out)
        std::fprintf(stderr, "warning: cannot write %s\n",
                     path.string().c_str());
}

void
printResult(std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    ilp::Json m = ilp::Json::object();
    for (const Metric &metric : metrics) {
        ilp::Json v = ilp::Json::object();
        v.set("value", ilp::Json(metric.value));
        v.set("unit", ilp::Json(metric.unit));
        m.set(metric.name, std::move(v));
    }
    ilp::Json result = ilp::Json::object();
    result.set("correct", ilp::Json(failed == 0));
    result.set("attempted",
               ilp::Json(static_cast<std::uint64_t>(attempted)));
    result.set("failed", ilp::Json(static_cast<std::uint64_t>(failed)));
    result.set("metrics", std::move(m));
    std::printf("%s\n", result.dump().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (args.record)
        return recordReference(args);

    Reference reference;
    std::string error;
    if (!reference.load(args.reference, &error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return 1;
    }
    const Context ctx{args.kind, &reference};
    const char *name = workloadName(args.kind);
    const std::size_t cells = cellCount(args.kind, args.seconds);

    // Each repetition runs in a process of its own: it sets up from
    // scratch (cell generation, Study construction, the workload's
    // warm-up) and times the same cell list.  The host's contention
    // only ever slows a sample down, and on a shared host it comes in
    // phases of seconds to minutes, so a median over a run's samples
    // follows whichever phase held most of them.  Set-up and each
    // cell's time are therefore minima over all of a run's samples,
    // and the pass time is the sum of the cells' (a whole pass is
    // rarely all in one fast phase); peak RSS, which contention does
    // not inflate, is a median over repetitions.
    const int repetitions = repetitionCount(args.kind);
    std::vector<double> setups, walls, rss;
    std::vector<std::vector<double>> cellMs(cells);
    Plan plan = generate(args.kind, args.seed, cells);
    PassResult pass;
    for (int r = 0; r < repetitions; ++r) {
        Repetition rep;
        if (!runRepetition(args.kind, args.seed, cells, ctx, &rep))
            return 1;
        std::string line;
        char buf[64];
        for (double s : rep.setupS) {
            std::snprintf(buf, sizeof buf, " %.3f", s);
            line += buf;
        }
        line += " s, passes";
        for (double w : rep.wallS) {
            std::snprintf(buf, sizeof buf, " %.3f", w);
            line += buf;
        }
        std::fprintf(stderr, "repetition %d: setup%s s\n", r + 1,
                     line.c_str());
        setups.insert(setups.end(), rep.setupS.begin(), rep.setupS.end());
        walls.insert(walls.end(), rep.wallS.begin(), rep.wallS.end());
        rss.push_back(rep.peakRssMb);
        for (const std::vector<double> &times : rep.cellMs)
            for (std::size_t i = 0; i < cells && i < times.size(); ++i)
                cellMs[i].push_back(times[i]);
        pass.attempted += rep.attempted;
        pass.failed += rep.failed;
        pass.simInstructions = rep.simInstructions;
    }
    const double setupS = minimum(setups);

    std::vector<double> sorted;
    double wallS = 0.0;
    for (const std::vector<double> &times : cellMs) {
        sorted.push_back(minimum(times));
        wallS += sorted.back() / 1e3;
    }
    std::sort(sorted.begin(), sorted.end());
    const int tail = tailPercentile(sorted.size());
    const double failedFrac =
        static_cast<double>(pass.failed) /
        static_cast<double>(std::max<std::size_t>(1, pass.attempted));

    std::error_code ec;
    std::filesystem::create_directories(args.out, ec);

    if (args.trace == 0) {
        const std::vector<Metric> e2e = {
            {"setup_s", setupS, "s"},
            {"wall_s", wallS, "s"},
            {"sim_minstr_per_s",
             static_cast<double>(pass.simInstructions) / wallS / 1e6,
             "Minstr/s"},
            {"cell_p50_ms", harrellDavisMedian(sorted), "ms"},
            {"cell_tail_ms", percentileOf(sorted, tail), "ms"},
            {"peak_rss_mb", ilp::bench::median(rss), "MB"},
        };
        std::fprintf(stderr,
                     "%s seed %llu: %zu warm-up pairs, %zu cells x %zu "
                     "passes (fastest %.3f s), tail = p%d of %zu "
                     "samples, failed_frac %.6f\n",
                     name, static_cast<unsigned long long>(args.seed),
                     plan.warmup.size(), sorted.size(), walls.size(),
                     minimum(walls), tail, sorted.size(), failedFrac);
        for (const Metric &m : e2e)
            std::fprintf(stderr, "  %-18s %14.6f %s\n", m.name.c_str(),
                         m.value, m.unit.c_str());

        // bench-v2 datapoints, read unchanged by `ssim bench-check`
        // and `ssim report`.
        ilp::Json config = ilp::Json::object();
        config.set("seed", ilp::Json(args.seed));
        config.set("seconds", ilp::Json(args.seconds));
        config.set("cells",
                   ilp::Json(static_cast<std::uint64_t>(sorted.size())));
        config.set("repetitions", ilp::Json(repetitions));
        config.set("passes",
                   ilp::Json(static_cast<std::uint64_t>(walls.size())));
        config.set("tail_percentile", ilp::Json(tail));
        std::vector<Metric> points = e2e;
        points.push_back({"failed_frac", failedFrac, "fraction"});
        const std::string bench =
            (std::filesystem::path(args.out) / "BENCH_perfbench.json")
                .string();
        for (const Metric &m : points) {
            if (!ilp::bench::appendPoint(
                    bench,
                    ilp::bench::makePoint(
                        "perfbench", std::string(name) + "/" + m.name,
                        m.unit,
                        m.name == "sim_minstr_per_s" ? "higher"
                                                     : "lower",
                        {m.value}, config),
                    &error))
                std::fprintf(stderr, "warning: %s: %s\n", bench.c_str(),
                             error.c_str());
        }
        printResult(pass.attempted, pass.failed, e2e);
        return 0;
    }

    // The traced replay: the same cells on a fresh, equally warmed
    // study, spans kept in memory and written at exit.
    ilp::Study study(1);
    warmUp(study, plan, ctx, nullptr);
    Recorder rec;
    const PassResult traced = runPass(study, plan, ctx, &rec);
    std::fprintf(stderr, "traced pass %.3f s\n", traced.wallSeconds);
    for (const std::string &why : traced.failures)
        std::fprintf(stderr, "FAILED (traced) %s\n", why.c_str());
    const std::vector<Metric> layers =
        layerMetrics(rec, study, traced, wallS);
    const std::string table = layerTable(args.kind, layers);
    std::fprintf(stderr, "%s", table.c_str());
    const std::filesystem::path out(args.out);
    writeFile(out / ("spans-" + std::string(name) + "-seed" +
                     std::to_string(args.seed) + ".json"),
              rec.json() + "\n");
    writeFile(out / ("layers-" + std::string(name) + ".txt"), table);
    printResult(pass.attempted + traced.attempted,
                pass.failed + traced.failed, layers);
    return 0;
}
