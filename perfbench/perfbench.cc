#include "perfbench.hh"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/machine/models.hh"
#include "core/study/whatif.hh"
#include "sim/exec.hh"
#include "support/diag.hh"
#include "support/json.hh"

namespace perfbench {

using namespace ilp;

namespace {

using Clock = std::chrono::steady_clock;

/** whatif::analyze's critical-edge count, as `ssim whatif` uses. */
constexpr std::size_t kTopEdges = 10;

/** splitmix64: the same draws on every platform and standard
 *  library, unlike the <random> distributions. */
struct Rng
{
    std::uint64_t state;

    std::uint64_t next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    std::size_t below(std::size_t n) { return next() % n; }

    template <typename T>
    void shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }
};

std::string
machineId(const MachineConfig &m)
{
    char hash[20];
    std::snprintf(hash, sizeof hash, "%016" PRIx64, m.specHash());
    return m.name + "#" + hash;
}

Pair
makePair(const Workload &w, const MachineConfig &m,
         const CompileOptions &o)
{
    return Pair{&w, m, m, o};
}

MachineConfig
widened(MachineConfig m, int width)
{
    m.issueWidth = width;
    m.name += "+w" + std::to_string(width);
    return m;
}

std::vector<Figure>
buildGrid()
{
    const auto &suite = allWorkloads();
    const MachineConfig ss8 = idealSuperscalar(8);
    std::vector<Figure> grid;

    Figure f41{"figure-4-1", {}};
    Figure f45{"figure-4-5", {}};
    for (const Workload &w : suite) {
        for (int d = 1; d <= kMaxDegree; ++d) {
            f41.pairs.push_back(makePair(w, idealSuperscalar(d),
                                         defaultCompileOptions(w)));
            f41.pairs.push_back(makePair(w, superpipelined(d),
                                         defaultCompileOptions(w)));
            f45.pairs.push_back(makePair(w, idealSuperscalar(d),
                                         defaultCompileOptions(w)));
        }
    }

    Figure f44{"figure-4-4", {}};
    for (const Workload &w : suite)
        for (bool unit : {true, false})
            for (int width = 1; width <= 8; ++width)
                f44.pairs.push_back(makePair(
                    w, widened(cray1(unit), width),
                    defaultCompileOptions(w)));

    // Heroic alias analysis models the paper's hand analysis, which
    // was done only for these two programs under careful unrolling
    // (figure_4_6).  Elsewhere it is unsound: whet on ss(1,8) at
    // level 4 with Heroic returns checksum 1078402 against an
    // expected 1041909 (ir/alias.hh, EXPERIMENTS.md note 4), so the
    // generator must never pair it with other programs or naive
    // unrolling — that would be a broken cell, not a failure.
    Figure f46{"figure-4-6", {}};
    for (const char *name : {"linpack", "livermore"}) {
        const Workload &w = workloadByName(name);
        for (int factor : {1, 2, 4, 6, 8, 10}) {
            for (bool careful : {false, true}) {
                CompileOptions o = defaultCompileOptions(w);
                o.unroll.factor = factor;
                o.unroll.careful = careful;
                o.alias = careful ? AliasLevel::Heroic
                                  : AliasLevel::Arrays;
                o.layout.numTemp = 40;
                f46.pairs.push_back(makePair(w, ss8, o));
            }
        }
    }

    Figure f48{"figure-4-8", {}};
    for (const Workload &w : suite) {
        for (int level = 0; level < 5; ++level) {
            CompileOptions o = defaultCompileOptions(w);
            o.level = static_cast<OptLevel>(level);
            f48.pairs.push_back(makePair(w, ss8, o));
        }
    }

    Figure abl{"ablation", {}};
    MachineConfig fenced = ss8;
    fenced.issueAcrossBranches = false;
    fenced.name += "+fence";
    for (const Workload &w : suite) {
        for (AliasLevel a : {AliasLevel::Conservative, AliasLevel::Arrays,
                             AliasLevel::Symbols, AliasLevel::Careful}) {
            CompileOptions o = defaultCompileOptions(w);
            o.alias = a;
            abl.pairs.push_back(makePair(w, ss8, o));
        }
        for (std::uint32_t temps : {6u, 8u, 12u, 24u, 40u}) {
            CompileOptions o = defaultCompileOptions(w);
            o.layout.numTemp = temps;
            abl.pairs.push_back(makePair(w, ss8, o));
        }
        abl.pairs.push_back(
            makePair(w, fenced, defaultCompileOptions(w)));
        abl.pairs.push_back(
            makePair(w, multiTitan(), defaultCompileOptions(w)));
    }

    Figure t51{"table-5-1", {}};
    for (const Workload &w : suite)
        t51.pairs.push_back(
            makePair(w, idealSuperscalar(3), defaultCompileOptions(w)));

    grid = {f41, f44, f45, f46, f48, abl, t51};
    return grid;
}

/** Pairs grouped by program, in suite order (stratified draws). */
std::vector<std::vector<Pair>>
byProgram(const std::vector<Pair> &pairs)
{
    const auto &suite = allWorkloads();
    std::vector<std::vector<Pair>> groups(suite.size());
    for (const Pair &p : pairs)
        groups[static_cast<std::size_t>(p.program - suite.data())]
            .push_back(p);
    return groups;
}

std::vector<Pair>
prunedPairs(const Pair &p)
{
    std::vector<Pair> out;
    for (int d = 1; d <= kMaxDegree; ++d)
        out.push_back(makePair(*p.program, idealSuperscalar(d),
                               p.options));
    return out;
}

/** A Table 5-1-range data-cache geometry. */
CacheConfig
drawCache(Rng &rng)
{
    static const std::int64_t sizes[] = {8 << 10, 16 << 10, 32 << 10,
                                         64 << 10, 128 << 10};
    static const std::int64_t lines[] = {16, 32, 64};
    static const int ways[] = {1, 2, 4};
    CacheConfig c;
    c.sizeBytes = sizes[rng.below(5)];
    c.lineBytes = lines[rng.below(3)];
    c.associativity = ways[rng.below(3)];
    c.missPenaltyCycles = 12.0;
    return c;
}

/** A seeded deck: dealt without replacement, reshuffled once
 *  exhausted. */
template <typename T>
class Deck
{
  public:
    Deck(Rng &rng, std::vector<T> items)
        : rng_(rng), items_(std::move(items))
    {
    }
    T draw()
    {
        if (next_ == 0)
            rng_.shuffle(items_);
        const T item = items_[next_];
        next_ = (next_ + 1) % items_.size();
        return item;
    }

  private:
    Rng &rng_;
    std::vector<T> items_;
    std::size_t next_ = 0;
};

/** 0 .. n-1; dealt from a Deck, whole seeded rounds of n. */
std::vector<std::size_t>
indices(std::size_t n)
{
    std::vector<std::size_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = i;
    return out;
}

} // namespace

bool
parseWorkload(const std::string &name, WorkloadKind *out)
{
    for (WorkloadKind k : {WorkloadKind::PaperSweep, WorkloadKind::Retime,
                           WorkloadKind::Whatif}) {
        if (name == workloadName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::PaperSweep:
        return "paper-sweep";
    case WorkloadKind::Retime:
        return "retime";
    case WorkloadKind::Whatif:
        return "whatif";
    }
    return "?";
}

std::string
Pair::key() const
{
    return Study::fingerprint(*program, options) + "|" +
           machineId(sched) + "|" + machineId(timing);
}

Pair
basePair(const Pair &p)
{
    return makePair(*p.program, baseMachine(), p.options);
}

const std::vector<Figure> &
paperGrid()
{
    static const std::vector<Figure> grid = buildGrid();
    return grid;
}

const std::vector<Pair> &
crossMachineGrid()
{
    static const std::vector<Pair> grid = [] {
        std::vector<Pair> out;
        for (const Workload &w : allWorkloads()) {
            for (const MachineConfig &timing :
                 {idealSuperscalar(8), multiTitan()}) {
                Pair p = makePair(w, baseMachine(),
                                  defaultCompileOptions(w));
                p.timing = timing;
                out.push_back(p);
            }
        }
        return out;
    }();
    return grid;
}

namespace {

/** Program `w`'s distinct grid pairs at its default options; with
 *  `skipIdeal`, without the ideal superscalars (a pruned sweep's). */
std::vector<Pair>
defaultOptionPairs(std::size_t w, bool skipIdeal)
{
    const Workload &program = allWorkloads()[w];
    const std::string options =
        Study::fingerprint(program, defaultCompileOptions(program));
    std::map<std::string, Pair> unique;
    for (const Figure &f : paperGrid()) {
        for (const Pair &p : f.pairs) {
            if (p.program != &program ||
                Study::fingerprint(program, p.options) != options)
                continue;
            if (skipIdeal && p.timing.specHash() ==
                                 idealSuperscalar(p.timing.issueWidth)
                                     .specHash())
                continue;
            unique.emplace(p.key(), p);
        }
    }
    std::vector<Pair> out;
    for (auto &[key, p] : unique)
        out.push_back(p);
    return out;
}

} // namespace

std::vector<Pair>
referenceDomain()
{
    std::vector<Pair> all;
    for (const Figure &f : paperGrid()) {
        for (const Pair &p : f.pairs) {
            all.push_back(p);
            all.push_back(basePair(p));
        }
    }
    for (const Pair &p : crossMachineGrid()) {
        all.push_back(p);
        all.push_back(basePair(p));
    }
    std::map<std::string, Pair> unique;
    for (const Pair &p : all)
        unique.emplace(p.key(), p);
    std::vector<Pair> out;
    for (auto &[key, p] : unique)
        out.push_back(p);
    return out;
}

std::size_t
cellCount(WorkloadKind kind, int seconds)
{
    // Cells per pass.  Each list is whole rounds of the eight
    // programs (on paper-sweep, six: every figure of most programs),
    // which keeps the spread between seeds small.  At --seconds 10 on
    // a 4-core 2.1 GHz host with a Release build, a pass takes 3-5 s
    // on paper-sweep, 1.4-2.4 s on retime (which times three passes
    // per repetition) and 6-8 s on whatif, whose cells are few and
    // heavy; the tail percentile needs 10 cells beyond it.
    double perSecond = 0.0;
    switch (kind) {
    case WorkloadKind::PaperSweep:
        perSecond = 4.8;
        break;
    case WorkloadKind::Retime:
        perSecond = 7.2;
        break;
    case WorkloadKind::Whatif:
        perSecond = 2.6;
        break;
    }
    return std::max<std::size_t>(
        20, static_cast<std::size_t>(std::lround(perSecond * seconds)));
}

Plan
generate(WorkloadKind kind, std::uint64_t seed, std::size_t cells)
{
    Rng rng{seed * 0x2545f4914f6cdd1dULL + static_cast<int>(kind)};
    const std::size_t programs = allWorkloads().size();
    const std::vector<Figure> &grid = paperGrid();
    Plan plan;

    // Draws are stratified by program: every program comes up equally
    // often, since the programs differ 6x in dynamic length.  Within a
    // (figure, program) group the points are dealt from a seeded deck,
    // so a run repeats a point only once it has drawn them all.  Both
    // keep the work in a pass from depending on the seed.
    switch (kind) {
    case WorkloadKind::PaperSweep: {
        // Programs come in whole seeded rounds, and each program deals
        // the figures whose grid has it from a deck.  Within a figure
        // every program has the same points in the same order (the
        // machine and options variants), so the point is dealt from
        // one deck per figure: consecutive programs get different
        // variants, and each variant comes up equally often.
        std::vector<std::vector<std::vector<Pair>>> groups;
        std::vector<Deck<std::size_t>> variants;
        for (const Figure &f : grid) {
            groups.push_back(byProgram(f.pairs));
            std::size_t size = 0;
            for (const auto &g : groups.back())
                size = std::max(size, g.size());
            variants.emplace_back(rng, indices(size));
        }
        std::vector<Deck<std::size_t>> figures;
        for (std::size_t w = 0; w < programs; ++w) {
            std::vector<std::size_t> has;
            for (std::size_t f = 0; f < grid.size(); ++f)
                if (!groups[f][w].empty())
                    has.push_back(f);
            figures.emplace_back(rng, std::move(has));
        }
        Deck<std::size_t> order(rng, indices(programs));
        std::map<std::string, Pair> bases;
        for (std::size_t i = 0; i < cells; ++i) {
            const std::size_t w = order.draw();
            const std::size_t f = figures[w].draw();
            Cell c;
            c.kind = CellKind::Sweep;
            c.pair = groups[f][w][variants[f].draw()];
            plan.cells.push_back(c);
            const Pair base = basePair(c.pair);
            bases.emplace(base.key(), base);
        }
        // Warm-up runs the base machine once per (program, options),
        // the reference every figure divides by, so that each timed
        // cell compiles, lowers, executes and times once.
        for (auto &[key, p] : bases)
            plan.warmup.push_back(p);
        break;
    }
    case WorkloadKind::Retime: {
        // (program, machine) pairs at the program's default options,
        // three per program, plus both row-4 cross-machine pairs.
        // Every program has the same machines in the same order, so
        // the machines are dealt from one deck across programs.
        std::vector<std::vector<Pair>> drawn(programs);
        std::vector<std::vector<Pair>> machines;
        for (std::size_t w = 0; w < programs; ++w)
            machines.push_back(defaultOptionPairs(w, false));
        Deck<std::size_t> variants(rng, indices(machines[0].size()));
        for (std::size_t w = 0; w < programs; ++w) {
            for (int k = 0; k < 3; ++k)
                drawn[w].push_back(machines[w][variants.draw()]);
            for (const Pair &p : drawn[w])
                plan.warmup.push_back(p);
        }
        const auto cross = byProgram(crossMachineGrid());
        for (const auto &g : cross)
            for (const Pair &p : g)
                plan.warmup.push_back(basePair(p));
        Deck<std::size_t> order(rng, indices(programs));
        for (std::size_t i = 0; i < cells; ++i) {
            const std::size_t w = order.draw();
            Cell c;
            c.kind = std::array<CellKind, 3>{
                CellKind::Stats, CellKind::Profile,
                CellKind::CrossMachine}[(i / programs) % 3];
            if (c.kind == CellKind::CrossMachine)
                c.pair = cross[w][rng.below(cross[w].size())];
            else
                c.pair = drawn[w][rng.below(drawn[w].size())];
            c.cache = drawCache(rng);
            plan.cells.push_back(c);
        }
        break;
    }
    case WorkloadKind::Whatif: {
        // Every twelfth cell is an `ilp --prune-analytic` sweep over
        // the ideal superscalars (eight graphs), the rest single
        // `whatif` reports on the figures' other machines, all at the
        // programs' default options as the CLI uses them.  The pruned
        // sweeps take their programs in suite order, not from the
        // seed: a sweep costs 8 graph builds, so which programs get
        // one would otherwise dominate the spread between seeds.
        // Every graph stays cached for the study's lifetime, which is
        // what bounds this workload's cell count.
        std::vector<Deck<Pair>> reports;
        for (std::size_t w = 0; w < programs; ++w)
            reports.emplace_back(rng, defaultOptionPairs(w, true));
        Deck<std::size_t> order(rng, indices(programs));
        for (std::size_t i = 0; i < cells; ++i) {
            Cell c;
            if (i % 12 == 11) {
                const Workload &w = allWorkloads()[(i / 12) % programs];
                c.kind = CellKind::Pruned;
                c.pair = makePair(w, baseMachine(),
                                  defaultCompileOptions(w));
                for (const Pair &p : prunedPairs(c.pair))
                    plan.warmup.push_back(p);
                plan.warmup.push_back(c.pair);
            } else {
                c.kind = CellKind::Report;
                c.pair = reports[order.draw()].draw();
                plan.warmup.push_back(c.pair);
            }
            plan.cells.push_back(c);
        }
        break;
    }
    }
    return plan;
}

// ---------------------------------------------------------- reference

bool
Reference::load(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read " + path;
        return false;
    }
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, instrs, cycles;
        if (!std::getline(fields, key, '\t') ||
            !std::getline(fields, instrs, '\t') ||
            !std::getline(fields, cycles, '\t')) {
            *error = path + ":" + std::to_string(lineNo) +
                     ": expected key<TAB>instructions<TAB>cycles";
            return false;
        }
        try {
            RefEntry e;
            e.instructions = std::stoull(instrs);
            e.cycles = std::stod(cycles);
            entries_[key] = e;
        } catch (const std::exception &) {
            *error = path + ":" + std::to_string(lineNo) +
                     ": bad number";
            return false;
        }
    }
    return true;
}

bool
Reference::save(const std::string &path, std::string *error) const
{
    std::ofstream out(path);
    if (!out) {
        *error = "cannot write " + path;
        return false;
    }
    out << "# supersym perfbench reference: simulated instructions and "
           "base cycles per pair,\n# recorded from the interpreter "
           "oracle (perfbench --record-reference).\n";
    char buf[64];
    for (const auto &[key, e] : entries_) {
        std::snprintf(buf, sizeof buf, "%.17g", e.cycles);
        out << key << '\t' << e.instructions << '\t' << buf << '\n';
    }
    out.close();
    if (!out) {
        *error = "write failed: " + path;
        return false;
    }
    return true;
}

const RefEntry *
Reference::find(const std::string &key) const
{
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
}

void
Reference::set(const std::string &key, RefEntry entry)
{
    entries_[key] = entry;
}

bool
checksumExempt(const Pair &p)
{
    return p.options.unroll.careful && p.program->fpSensitive;
}

bool
recordEntry(const Pair &p, RefEntry *out, std::string *error)
{
    Result<Module> compiled = compileWorkloadChecked(
        p.program->source, p.sched, p.options, nullptr,
        p.program->name);
    if (!compiled.ok()) {
        *error = compiled.formatErrors();
        return false;
    }
    Module module = compiled.take();
    std::unique_ptr<Executor> exec =
        makeExecutor(module, ExecBackend::Interp);
    IssueEngine engine(p.timing);
    // The virtual-sink path, not the fused runTimed the benchmark's
    // subject uses: the reference shares neither backend nor loop.
    RunResult r = exec->run("main", &engine);
    if (r.trapped()) {
        *error = r.trap.format();
        return false;
    }
    if (!checksumExempt(p) &&
        static_cast<std::int64_t>(r.returnValue) != p.program->expected) {
        *error = "checksum " + std::to_string(r.returnValue) +
                 " != expected " + std::to_string(p.program->expected);
        return false;
    }
    out->instructions = r.instructions;
    out->cycles = engine.baseCycles();
    return true;
}

// -------------------------------------------------------------- spans

Recorder::Recorder() : epoch_(Clock::now()) {}

double
Recorder::now() const
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     epoch_)
        .count();
}

int
Recorder::open(const std::string &name, int cell, int parent,
               bool extra)
{
    Span s;
    s.name = name;
    s.cell = cell;
    s.parent = parent;
    s.extra = extra;
    s.start = now();
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

void
Recorder::close(int id)
{
    spans_[static_cast<std::size_t>(id)].end = now();
}

void
Recorder::add(const std::string &name, int cell, int parent, double start,
              double end)
{
    Span s;
    s.name = name;
    s.cell = cell;
    s.parent = parent;
    s.start = start;
    s.end = end;
    spans_.push_back(std::move(s));
}

std::string
Recorder::json() const
{
    Json arr = Json::array();
    for (const Span &s : spans_) {
        Json o = Json::object();
        o.set("name", Json(s.name));
        o.set("start_ms", Json(s.start));
        o.set("end_ms", Json(s.end));
        o.set("parent", Json(s.parent));
        o.set("cell", Json(s.cell));
        o.set("extra", Json(s.extra));
        arr.push(std::move(o));
    }
    return arr.dump();
}

// ------------------------------------------------------------ running

int
tailPercentile(std::size_t samples)
{
    // Nearest rank: percentile p sits at rank ceil(p * n / 100), and
    // the samples above it number n - rank.
    for (int p = 99; p >= 1; --p) {
        const std::size_t rank =
            (static_cast<std::size_t>(p) * samples + 99) / 100;
        if (samples >= rank + 10)
            return p;
    }
    return 0;
}

double
harrellDavisMedian(const std::vector<double> &sorted)
{
    // Order statistic i gets the Beta((n+1)/2, (n+1)/2) mass of
    // [(i-1)/n, i/n], integrated by Simpson's rule.
    const std::size_t n = sorted.size();
    const double a = (static_cast<double>(n) + 1.0) / 2.0;
    const double logBeta = 2.0 * std::lgamma(a) - std::lgamma(2.0 * a);
    auto pdf = [&](double x) {
        if (x <= 0.0 || x >= 1.0)
            return 0.0;
        return std::exp((a - 1.0) * (std::log(x) + std::log1p(-x)) -
                        logBeta);
    };
    constexpr int kSteps = 64; // even
    double sum = 0.0, mass = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double lo = static_cast<double>(i) / static_cast<double>(n);
        const double h = 1.0 / static_cast<double>(n) / kSteps;
        double w = pdf(lo) + pdf(lo + kSteps * h);
        for (int k = 1; k < kSteps; ++k)
            w += (k % 2 ? 4.0 : 2.0) * pdf(lo + k * h);
        w *= h / 3.0;
        sum += w * sorted[i];
        mass += w;
    }
    return sum / mass;
}

double
percentileOf(const std::vector<double> &sorted, int pct)
{
    std::size_t rank =
        (static_cast<std::size_t>(pct) * sorted.size() + 99) / 100;
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

namespace {

/** Runs cells on one study; with a recorder it also records spans
 *  and decomposes the layers each study call did. */
class CellRunner
{
  public:
    CellRunner(Study &study, const Context &ctx, PassResult &res,
               Recorder *rec)
        : study_(study), ctx_(ctx), res_(res), rec_(rec)
    {
    }

    void run(const Cell &cell, int id);

  private:
    /** RAII span, a no-op without a recorder. */
    class Scope
    {
      public:
        Scope(CellRunner &r, const char *name, bool extra = false)
            : rec_(r.rec_),
              id_(rec_ ? rec_->open(name, r.cellId_, r.parent_, extra)
                       : -1)
        {
        }
        ~Scope() { close(); }
        void close()
        {
            if (rec_ && !closed_)
                rec_->close(id_);
            closed_ = true;
        }
        int id() const { return id_; }

      private:
        Recorder *rec_;
        int id_;
        bool closed_ = false;
    };

    void fail(const std::string &what);
    const RefEntry *ref(const Pair &p);
    void checkTiming(const Pair &p, std::uint64_t instructions,
                     double cycles, const char *what);
    void checkRun(const Pair &p, const RunOutcome &out,
                  const char *what);
    void checkBase(const Pair &p, double base);

    /** A study call that compiles and/or executes `p` internally;
     *  traced, it is followed by the layers it actually ran. */
    template <typename F>
    auto studyCall(const char *name, const Pair &p, F &&f,
                   bool live = false, bool extra = false);
    /** Runs `f`, a compile-cache lookup of the benchmark's own that
     *  the untraced pass does not make; runPass leaves its hits and
     *  misses out of study.compile_hit_frac. */
    template <typename F>
    auto own(F &&f);
    void decompose(const Pair &p, bool compiled, bool executed);

    void sweep(const Cell &c);
    void stats(const Cell &c);
    void profile(const Cell &c);
    void cross(const Cell &c);
    void report(const Cell &c);
    void pruned(const Cell &c);

    Study &study_;
    const Context &ctx_;
    PassResult &res_;
    Recorder *rec_;
    int cellId_ = -1;
    int parent_ = -1;
    bool cellFailed_ = false;
};

void
CellRunner::fail(const std::string &what)
{
    cellFailed_ = true;
    if (res_.failures.size() < 20)
        res_.failures.push_back("cell " + std::to_string(cellId_) +
                                ": " + what);
}

const RefEntry *
CellRunner::ref(const Pair &p)
{
    const RefEntry *e = ctx_.reference->find(p.key());
    if (!e)
        fail("no reference entry for " + p.key());
    return e;
}

void
CellRunner::checkTiming(const Pair &p, std::uint64_t instructions,
                        double cycles, const char *what)
{
    const RefEntry *e = ref(p);
    if (e && (e->instructions != instructions || e->cycles != cycles)) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s: %" PRIu64 " instrs / %.17g cycles, "
                      "reference %" PRIu64 " / %.17g",
                      what, instructions, cycles, e->instructions,
                      e->cycles);
        fail(p.key() + " " + buf);
    }
}

void
CellRunner::checkRun(const Pair &p, const RunOutcome &out,
                     const char *what)
{
    if (out.trapped()) {
        fail(p.key() + " " + what + ": " + out.trap.format());
        return;
    }
    if (!checksumExempt(p) && out.checksum != p.program->expected)
        fail(p.key() + " " + what + ": checksum " +
             std::to_string(out.checksum) + " != expected " +
             std::to_string(p.program->expected));
    checkTiming(p, out.instructions, out.cycles, what);
}

void
CellRunner::checkBase(const Pair &p, double base)
{
    // DESIGN.md §5 law 2: the base machine takes one cycle per
    // instruction.
    const Pair b = basePair(p);
    const RefEntry *e = ref(b);
    if (e && (base != static_cast<double>(e->instructions) ||
              base != e->cycles))
        fail(b.key() + " base cycles " + std::to_string(base) +
             " != dynamic instructions " +
             std::to_string(e->instructions));
}

template <typename F>
auto
CellRunner::studyCall(const char *name, const Pair &p, F &&f, bool live,
                      bool extra)
{
    const std::uint64_t compiles = study_.compileCache().misses();
    const std::uint64_t executions = study_.traceCache().misses();
    Scope span(*this, name, extra);
    auto result = extra ? own(f) : f();
    span.close();
    if (rec_) {
        const bool compiled =
            study_.compileCache().misses() != compiles;
        const bool executed =
            live || !study_.traceCache().enabled() ||
            study_.traceCache().misses() != executions;
        const int saved = parent_;
        parent_ = span.id();
        decompose(p, compiled, executed);
        parent_ = saved;
    }
    return result;
}

template <typename F>
auto
CellRunner::own(F &&f)
{
    const std::uint64_t hits = study_.compileCache().hits();
    const std::uint64_t misses = study_.compileCache().misses();
    auto result = f();
    res_.counters["compile.own_hits"] +=
        static_cast<double>(study_.compileCache().hits() - hits);
    res_.counters["compile.own_misses"] +=
        static_cast<double>(study_.compileCache().misses() - misses);
    return result;
}

void
CellRunner::decompose(const Pair &p, bool compiled, bool executed)
{
    if (!compiled && !executed)
        return;
    // A hit: the compile cache hands back the module and the telemetry
    // its compilation recorded.
    CompileTelemetry tel;
    const std::shared_ptr<const Module> module = own([&] {
        return study_.compileCache().compile(*p.program, p.sched,
                                             p.options, &tel);
    });
    if (compiled && !tel.phases.empty()) {
        // The frontend (compileToIrChecked) and optimizer
        // (optimizeModule) ran inside the study call, which compiles
        // first.  Their times are the telemetry's; the spans are
        // placed from the call's start, one after the other.
        double feMs = 0.0, optMs = 0.0;
        for (const PhaseStat &ps : tel.phases) {
            if (ps.name == "frontend") {
                feMs += ps.wallMs;
                res_.counters["frontend.calls"] +=
                    static_cast<double>(ps.runs);
            } else {
                optMs += ps.wallMs;
            }
        }
        // Every function runs the same phases in the same order, so
        // the last phase's output is the optimized module.
        res_.counters["opt.static_instrs"] +=
            static_cast<double>(tel.phases.back().instrsAfter);
        const double start =
            rec_->spans()[static_cast<std::size_t>(parent_)].start;
        rec_->add("frontend", cellId_, parent_, start, start + feMs);
        rec_->add("opt", cellId_, parent_, start + feMs,
                  start + feMs + optMs);
    }
    if (!executed)
        return;
    std::unique_ptr<Executor> exec = [&] {
        Scope s(*this, "bytecode", true);
        return makeExecutor(*module);
    }();
    RunResult functional = [&] {
        Scope s(*this, "exec", true);
        return exec->run("main");
    }();
    IssueEngine engine(p.timing);
    RunResult timed = [&] {
        Scope s(*this, "issue", true);
        return exec->runTimed("main", engine);
    }();
    if (functional.trapped() || timed.trapped()) {
        fail(p.key() + " layer run trapped");
        return;
    }
    res_.counters["exec.instructions"] +=
        static_cast<double>(functional.instructions);
    checkTiming(p, timed.instructions, engine.baseCycles(),
                "layer runTimed");
}

void
CellRunner::sweep(const Cell &c)
{
    const Pair &p = c.pair;
    const double base = studyCall("study.base_cycles", basePair(p), [&] {
        return study_.baseCycles(*p.program, p.options);
    });
    checkBase(p, base);
    const RunOutcome out = studyCall("study.timed_run", p, [&] {
        return study_.timedRun(*p.program, p.timing, p.options);
    });
    checkRun(p, out, "timedRun");
    res_.simInstructions += out.instructions;
}

void
CellRunner::stats(const Cell &c)
{
    const Pair &p = c.pair;
    RunTelemetryOptions t;
    t.collectStats = true;
    t.cache = c.cache;
    const RunOutcome out = studyCall("stats", p, [&] {
        return study_.timedRun(*p.program, p.timing, p.options, t);
    });
    checkRun(p, out, "timedRun+stats");
    if (rec_) {
        // The same call without stats: stats.ms is the difference.
        const RunOutcome plain = studyCall(
            "study.timed_run", p,
            [&] {
                return study_.timedRun(*p.program, p.timing,
                                       p.options);
            },
            false, true);
        checkRun(p, plain, "timedRun");
    }
    res_.simInstructions += out.instructions;
}

void
CellRunner::profile(const Cell &c)
{
    const Pair &p = c.pair;
    const prof::Profile prof = studyCall("profile", p, [&] {
        return study_.profiledRun(*p.program, p.timing, p.options);
    });
    checkTiming(p, prof.instructions, prof.cycles, "profiledRun");
    res_.simInstructions += prof.instructions;
}

void
CellRunner::cross(const Cell &c)
{
    const Pair &p = c.pair;
    std::shared_ptr<const Module> module;
    {
        Scope s(*this, "study.compile");
        module = study_.compileCache().compile(*p.program, p.sched,
                                               p.options);
    }
    const RunOutcome out = studyCall(
        "study.run_on_machine", p,
        [&] { return runOnMachine(*module, p.timing); }, true);
    checkRun(p, out, "runOnMachine");
    res_.simInstructions += out.instructions;
}

void
CellRunner::report(const Cell &c)
{
    const Pair &p = c.pair;
    if (rec_) {
        // Build the graph in its own span; whatif::analyze below then
        // finds it cached (and makes its own compile lookups again).  analyze and slack are timed again on
        // their own, as work the untraced run does not repeat.
        const std::uint64_t built = study_.graphCache().misses();
        std::shared_ptr<const DepGraph> graph;
        {
            Scope s(*this, "depgraph.build");
            graph = own([&] {
                return study_.dependenceGraph(*p.program, p.timing,
                                              p.options);
            });
        }
        if (study_.graphCache().misses() != built)
            res_.counters["depgraph.nodes"] +=
                static_cast<double>(graph->size());
        {
            Scope s(*this, "whatif.analyze", true);
            graph->analyze(p.timing);
        }
        {
            Scope s(*this, "whatif.slack", true);
            graph->slack(p.timing, kTopEdges);
        }
    }
    AnalyticResult a;
    {
        Scope s(*this, "whatif.report");
        a = whatif::analyze(study_, *p.program, p.timing, p.options,
                            kTopEdges)
                .analytic;
    }
    // Certified analytic cycles are the issue engine's exactly;
    // otherwise they are a lower bound.
    const RefEntry *e = ref(p);
    if (e && (a.instructions != e->instructions ||
              (a.certified ? a.baseCycles != e->cycles
                           : a.baseCycles > e->cycles)))
        fail(p.key() + " analytic " + std::to_string(a.baseCycles) +
             (a.certified ? " (certified)" : " (bound)") +
             " vs exact " + std::to_string(e->cycles));
    res_.simInstructions += a.instructions;
}

void
CellRunner::pruned(const Cell &c)
{
    const Pair &p = c.pair;
    const std::vector<Pair> degrees = prunedPairs(p);
    if (rec_) {
        for (const Pair &q : degrees) {
            const std::uint64_t built = study_.graphCache().misses();
            std::shared_ptr<const DepGraph> graph;
            {
                Scope s(*this, "depgraph.build");
                graph = own([&] {
                    return study_.dependenceGraph(*q.program, q.timing,
                                                  q.options);
                });
            }
            if (study_.graphCache().misses() != built)
                res_.counters["depgraph.nodes"] +=
                    static_cast<double>(graph->size());
        }
    }
    whatif::PruneOutcome po;
    {
        Scope s(*this, "whatif.pruned");
        po = whatif::prunedIlpSweep(study_, *p.program, p.options,
                                    kMaxDegree);
    }
    res_.counters["whatif.exact_replays"] +=
        static_cast<double>(po.exactReplays);
    res_.counters["whatif.exact_replays_unpruned"] +=
        static_cast<double>(po.exactReplaysUnpruned);
    if (po.cells.size() != degrees.size()) {
        fail(p.key() + " pruned sweep returned " +
             std::to_string(po.cells.size()) + " cells");
        return;
    }
    // The final table must equal the unpruned (exact) sweep.
    for (std::size_t i = 0; i < degrees.size(); ++i) {
        const RefEntry *e = ref(degrees[i]);
        if (e && po.cells[i].cycles != e->cycles)
            fail(degrees[i].key() + " pruned cycles " +
                 std::to_string(po.cells[i].cycles) + " != exact " +
                 std::to_string(e->cycles));
        if (e)
            res_.simInstructions += e->instructions;
    }
}

void
CellRunner::run(const Cell &cell, int id)
{
    cellId_ = id;
    cellFailed_ = false;
    Scope root(*this, "cell");
    parent_ = root.id();
    try {
        switch (cell.kind) {
        case CellKind::Sweep:
            sweep(cell);
            break;
        case CellKind::Stats:
            stats(cell);
            break;
        case CellKind::Profile:
            profile(cell);
            break;
        case CellKind::CrossMachine:
            cross(cell);
            break;
        case CellKind::Report:
            report(cell);
            break;
        case CellKind::Pruned:
            pruned(cell);
            break;
        }
    } catch (const TrapException &e) {
        fail(cell.pair.key() + ": " + e.trap().format());
    } catch (const DiagException &e) {
        fail(cell.pair.key() + ": " + formatDiags(e.diags()));
    } catch (const std::exception &e) {
        fail(cell.pair.key() + ": " + e.what());
    }
    parent_ = -1;
    res_.attempted += 1;
    if (cellFailed_)
        res_.failed += 1;
}

} // namespace

std::size_t
warmUp(Study &study, const Plan &plan, const Context &ctx,
       std::vector<std::string> *why)
{
    std::size_t failures = 0;
    for (const Pair &p : plan.warmup) {
        try {
            switch (ctx.kind) {
            case WorkloadKind::PaperSweep:
                study.baseCycles(*p.program, p.options);
                break;
            case WorkloadKind::Retime: {
                RunOutcome out =
                    study.timedRun(*p.program, p.timing, p.options);
                if (out.trapped())
                    throw TrapException(out.trap);
                break;
            }
            case WorkloadKind::Whatif:
                study.compileCache().compile(*p.program, p.sched,
                                             p.options);
                break;
            }
        } catch (const std::exception &e) {
            ++failures;
            if (why)
                why->push_back("warm-up " + p.key() + ": " + e.what());
        }
    }
    return failures;
}

PassResult
runPass(Study &study, const Plan &plan, const Context &ctx,
        Recorder *rec)
{
    PassResult res;
    CellRunner runner(study, ctx, res, rec);
    const std::uint64_t hits = study.compileCache().hits();
    const std::uint64_t misses = study.compileCache().misses();
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        runner.run(plan.cells[i], static_cast<int>(i));
        res.cellMs.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count());
    }
    res.wallSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    // The program's lookups: the pass's, less the traced pass's own.
    res.counters["compile.hits"] =
        static_cast<double>(study.compileCache().hits() - hits) -
        res.counters["compile.own_hits"];
    res.counters["compile.misses"] =
        static_cast<double>(study.compileCache().misses() - misses) -
        res.counters["compile.own_misses"];
    return res;
}

std::vector<Metric>
layerMetrics(const Recorder &rec, const Study &study,
             const PassResult &traced, double untracedWallSeconds)
{
    std::map<std::string, double> ms;
    std::map<int, double> decomposed; // study span -> frontend..exec
    // Apart from frontend and opt, which lie inside the study call
    // that compiled, spans inside a cell never overlap in time (the
    // rest of a call's layer decomposition runs after it), so their
    // durations add up.
    double cellMs = 0.0, covered = 0.0, extraMs = 0.0;
    const auto &spans = rec.spans();
    for (const Span &s : spans) {
        const double d = s.end - s.start;
        if (s.name == "cell") {
            cellMs += d;
            continue;
        }
        ms[s.name] += d;
        if (s.name != "frontend" && s.name != "opt")
            covered += d;
        if (s.extra)
            extraMs += d;
        if (s.name == "frontend" || s.name == "opt" ||
            s.name == "bytecode" || s.name == "exec")
            decomposed[s.parent] += d;
    }
    double studyMs = 0.0, studySelf = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.name != "study.timed_run" && s.name != "study.base_cycles")
            continue;
        const double d = s.end - s.start;
        studyMs += d;
        studySelf += d - decomposed[static_cast<int>(i)];
    }
    auto counter = [&](const char *name) {
        auto it = traced.counters.find(name);
        return it == traced.counters.end() ? 0.0 : it->second;
    };
    const double issueMs = ms["issue"] - ms["exec"];
    const double execInstr = counter("exec.instructions");
    const double hits = counter("compile.hits");
    const double lookups = hits + counter("compile.misses");
    const double unpruned = counter("whatif.exact_replays_unpruned");
    auto rate = [](double instrs, double msTotal) {
        return msTotal > 0.0 ? instrs / msTotal / 1e3 : 0.0;
    };

    return {
        {"frontend.ms", ms["frontend"], "ms"},
        {"frontend.calls", counter("frontend.calls"), "count"},
        {"opt.ms", ms["opt"], "ms"},
        {"opt.static_instrs", counter("opt.static_instrs"), "count"},
        {"bytecode.ms", ms["bytecode"], "ms"},
        {"exec.ms", ms["exec"], "ms"},
        {"exec.minstr_per_s", rate(execInstr, ms["exec"]), "Minstr/s"},
        {"issue.ms", issueMs, "ms"},
        {"issue.minstr_per_s", rate(execInstr, issueMs), "Minstr/s"},
        {"study.timed_run_ms", studyMs, "ms"},
        {"study.self_ms", studySelf, "ms"},
        {"study.compile_hit_frac", lookups > 0.0 ? hits / lookups : 0.0,
         "fraction"},
        {"stats.ms", ms["stats"] > 0.0 ? ms["stats"] - studyMs : 0.0,
         "ms"},
        {"profile.ms", ms["profile"], "ms"},
        {"depgraph.build_ms", ms["depgraph.build"], "ms"},
        {"depgraph.nodes", counter("depgraph.nodes"), "count"},
        {"depgraph.mb",
         static_cast<double>(study.graphCache().bytesHeld()) / 1048576.0,
         "MB"},
        {"whatif.analyze_ms", ms["whatif.analyze"], "ms"},
        {"whatif.slack_ms", ms["whatif.slack"], "ms"},
        {"whatif.exact_replays", counter("whatif.exact_replays"),
         "count"},
        {"whatif.replays_saved_frac",
         unpruned > 0.0
             ? 1.0 - counter("whatif.exact_replays") / unpruned
             : 0.0,
         "fraction"},
        {"trace.coverage", cellMs > 0.0 ? covered / cellMs : 0.0,
         "fraction"},
        {"trace.overhead_frac",
         untracedWallSeconds > 0.0
             ? (cellMs - extraMs) / 1e3 / untracedWallSeconds - 1.0
             : 0.0,
         "fraction"},
    };
}

std::string
layerTable(WorkloadKind kind, const std::vector<Metric> &metrics)
{
    std::string out = "per-layer (traced run), workload ";
    out += workloadName(kind);
    out += "\n";
    char buf[160];
    for (const Metric &m : metrics) {
        std::snprintf(buf, sizeof buf, "  %-28s %14.4f %s\n",
                      m.name.c_str(), m.value, m.unit.c_str());
        out += buf;
    }
    return out;
}

} // namespace perfbench
