/**
 * @file
 * The supersym end-to-end benchmark: seeded cell generation over the
 * paper's own figure grid, the three workloads (paper-sweep, retime,
 * whatif), the reference check behind failed_frac, and the span
 * recorder of the traced run.  See README.md for the metrics and why
 * each workload exists.
 */

#ifndef SUPERSYM_PERFBENCH_PERFBENCH_HH
#define SUPERSYM_PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/study/experiment.hh"

namespace perfbench {

enum class WorkloadKind
{
    PaperSweep,
    Retime,
    Whatif,
};

/** "paper-sweep" / "retime" / "whatif"; false on an unknown name. */
bool parseWorkload(const std::string &name, WorkloadKind *out);
const char *workloadName(WorkloadKind kind);

/** One program compiled (scheduled) for one machine and timed on
 *  another; `sched` and `timing` differ only in ablation row 4. */
struct Pair
{
    const ilp::Workload *program = nullptr;
    ilp::MachineConfig sched;
    ilp::MachineConfig timing;
    ilp::CompileOptions options;

    /** Identity in the reference table. */
    std::string key() const;
};

/** The same program and options on the base machine (the reference
 *  run behind Study::baseCycles). */
Pair basePair(const Pair &p);

/** One figure's grid of pairs, as its bench program sweeps it. */
struct Figure
{
    std::string name;
    std::vector<Pair> pairs;
};

/** The grid of Figures 4-1, 4-4, 4-5, 4-6, 4-8, the ablation (rows
 *  1-3 and the scheduled-for-the-measured-machine half of row 4) and
 *  Table 5-1's measured rows.  Every pair schedules for the machine
 *  it is timed on. */
const std::vector<Figure> &paperGrid();

/** Ablation row 4's other half: scheduled for the base machine,
 *  timed on the 8-wide superscalar and on the MultiTitan. */
const std::vector<Pair> &crossMachineGrid();

/** Every pair any workload's generator can draw, plus their base
 *  pairs (the domain of the reference table). */
std::vector<Pair> referenceDomain();

enum class CellKind
{
    Sweep,        ///< Study::baseCycles + Study::timedRun
    Stats,        ///< timedRun with collectStats and a cache geometry
    Profile,      ///< Study::profiledRun
    CrossMachine, ///< compileCache().compile for A + runOnMachine on B
    Report,       ///< whatif::analyze
    Pruned,       ///< whatif::prunedIlpSweep
};

struct Cell
{
    CellKind kind = CellKind::Sweep;
    Pair pair;
    ilp::CacheConfig cache;
};

/** A workload's generated inputs: the pairs its warm-up prepares and
 *  the fixed list of timed cells. */
struct Plan
{
    std::vector<Pair> warmup;
    std::vector<Cell> cells;
};

/** Cells per second of --seconds, per workload: the list length is
 *  fixed by the arguments, never by the clock, so wall_s compares
 *  across commits. */
std::size_t cellCount(WorkloadKind kind, int seconds);

/** Deterministic in (kind, seed, cells). */
Plan generate(WorkloadKind kind, std::uint64_t seed, std::size_t cells);

// ---------------------------------------------------------- reference

struct RefEntry
{
    std::uint64_t instructions = 0;
    double cycles = 0.0;
};

/** Simulated instructions and cycles per pair, recorded once from the
 *  interpreter (ExecBackend::Interp) on the live timing path. */
class Reference
{
  public:
    bool load(const std::string &path, std::string *error);
    bool save(const std::string &path, std::string *error) const;
    const RefEntry *find(const std::string &key) const;
    void set(const std::string &key, RefEntry entry);
    std::size_t size() const { return entries_.size(); }

  private:
    std::map<std::string, RefEntry> entries_;
};

/** Time `p` through the interpreter oracle.  False with `error` set
 *  when the run traps or its checksum fails. */
bool recordEntry(const Pair &p, RefEntry *out, std::string *error);

/** Whether a checksum is exempt from Workload::expected: careful
 *  unrolling legally reassociates FP reductions (the same exemption
 *  tests/workloads_test.cc applies). */
bool checksumExempt(const Pair &p);

// -------------------------------------------------------------- spans

/** One traced interval, in milliseconds since the recorder's epoch. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int cell = -1;
    /** Work the untraced run does not do (the layer decomposition). */
    bool extra = false;
};

class Recorder
{
  public:
    Recorder();
    int open(const std::string &name, int cell, int parent, bool extra);
    void close(int id);
    /** A span whose times were measured elsewhere. */
    void add(const std::string &name, int cell, int parent, double start,
             double end);
    const std::vector<Span> &spans() const { return spans_; }
    /** The spans as JSON (written at exit). */
    std::string json() const;

  private:
    double now() const;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
};

// ------------------------------------------------------------ running

/** Largest integer percentile with at least 10 samples above its
 *  nearest-rank value; 0 when there are fewer than 11 samples. */
int tailPercentile(std::size_t samples);
/** Nearest-rank percentile of ascending `sorted` (non-empty). */
double percentileOf(const std::vector<double> &sorted, int pct);
/** Harrell-Davis estimate of the median of ascending `sorted`
 *  (non-empty): a Beta-weighted mean of the order statistics near the
 *  middle, so a gap between the two middle samples does not make it
 *  jump from one draw to the next. */
double harrellDavisMedian(const std::vector<double> &sorted);

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Totals of one pass over the cells. */
struct PassResult
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    double wallSeconds = 0.0;
    std::uint64_t simInstructions = 0;
    std::vector<double> cellMs;
    /** Layer counters by name (traced runs; compile.hits/misses
     *  always). */
    std::map<std::string, double> counters;
    /** First reference-check failures, for the log. */
    std::vector<std::string> failures;
};

/** Everything a run needs besides the cells. */
struct Context
{
    WorkloadKind kind = WorkloadKind::PaperSweep;
    const Reference *reference = nullptr;
};

/** The workload's warm-up on `study`: base cycles (paper-sweep),
 *  timedRun (retime) or a compile (whatif) for every warm-up pair.
 *  Returns failures found. */
std::size_t warmUp(ilp::Study &study, const Plan &plan,
                   const Context &ctx, std::vector<std::string> *why);

/** One timed pass over the cells.  With a recorder the pass is
 *  traced: spans around each study call, then the layers it ran. */
PassResult runPass(ilp::Study &study, const Plan &plan,
                   const Context &ctx, Recorder *rec = nullptr);

/** Per-layer metrics from the traced run's spans and counters. */
std::vector<Metric> layerMetrics(const Recorder &rec,
                                 const ilp::Study &study,
                                 const PassResult &traced,
                                 double untracedWallSeconds);

/** The per-layer table (text) for one workload. */
std::string layerTable(WorkloadKind kind,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // SUPERSYM_PERFBENCH_PERFBENCH_HH
