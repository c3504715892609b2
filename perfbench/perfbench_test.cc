/** The benchmark's own tests: seeded generation, the tail rule, the
 *  grid's alias discipline and the reference check.  Run from the
 *  repository root (ctest sets the working directory). */

#include <algorithm>

#include <gtest/gtest.h>

#include "perfbench.hh"

namespace perfbench {
namespace {

std::vector<std::string>
cellKeys(const Plan &plan)
{
    std::vector<std::string> keys;
    for (const Cell &c : plan.cells)
        keys.push_back(c.pair.key() + "/" +
                       std::to_string(static_cast<int>(c.kind)) + "/" +
                       std::to_string(c.cache.sizeBytes));
    return keys;
}

TEST(PerfbenchGenerate, SameSeedSameCellsOtherSeedOtherCells)
{
    for (WorkloadKind k : {WorkloadKind::PaperSweep, WorkloadKind::Retime,
                           WorkloadKind::Whatif}) {
        const auto a = cellKeys(generate(k, 11, 48));
        const auto b = cellKeys(generate(k, 11, 48));
        const auto c = cellKeys(generate(k, 12, 48));
        EXPECT_EQ(a, b) << workloadName(k);
        EXPECT_NE(a, c) << workloadName(k);
        EXPECT_EQ(a.size(), 48u);
    }
}

TEST(PerfbenchGenerate, EveryProgramEquallyOftenPerRound)
{
    // Stratified draws: over whole rounds, each program appears the
    // same number of times whatever the seed.
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const Plan plan = generate(WorkloadKind::Retime, seed, 48);
        std::map<std::string, int> count;
        for (const Cell &c : plan.cells)
            ++count[c.pair.program->name];
        ASSERT_EQ(count.size(), 8u);
        for (const auto &[name, n] : count)
            EXPECT_EQ(n, 6) << name;
    }
}

TEST(PerfbenchGenerate, HeroicOnlyWithCarefulLinpackOrLivermore)
{
    for (const Pair &p : referenceDomain()) {
        if (p.options.alias != ilp::AliasLevel::Heroic)
            continue;
        EXPECT_TRUE(p.options.unroll.careful) << p.key();
        EXPECT_TRUE(p.program->name == "linpack" ||
                    p.program->name == "livermore")
            << p.key();
    }
}

TEST(PerfbenchTail, HighestPercentileWithTenSamplesBeyond)
{
    EXPECT_EQ(tailPercentile(10), 0);
    EXPECT_EQ(tailPercentile(20), 50);
    EXPECT_EQ(tailPercentile(50), 80);
    EXPECT_EQ(tailPercentile(100), 90);
    EXPECT_EQ(tailPercentile(1000), 99);
    for (std::size_t n = 11; n <= 400; ++n) {
        const int p = tailPercentile(n);
        std::vector<double> v;
        for (std::size_t i = 0; i < n; ++i)
            v.push_back(static_cast<double>(i));
        const double at = percentileOf(v, p);
        const auto beyond = std::count_if(
            v.begin(), v.end(), [&](double x) { return x > at; });
        EXPECT_GE(beyond, 10) << n;
        if (p < 99) {
            const double next = percentileOf(v, p + 1);
            EXPECT_LT(std::count_if(v.begin(), v.end(),
                                    [&](double x) { return x > next; }),
                      10)
                << n;
        }
    }
}

TEST(PerfbenchTail, HarrellDavisMedianIsCentredAndSmooth)
{
    EXPECT_DOUBLE_EQ(harrellDavisMedian({7.0}), 7.0);
    // Symmetric samples: the middle, to integration accuracy.
    std::vector<double> even, gap;
    for (int i = 0; i < 48; ++i) {
        even.push_back(i);
        gap.push_back(i < 24 ? i : i + 100);
    }
    EXPECT_NEAR(harrellDavisMedian(even), 23.5, 1e-6);
    EXPECT_NEAR(harrellDavisMedian(gap), 73.5, 1e-6);
    // Moving one sample next to the middle moves the estimate by a
    // fraction of the move, not the whole of it as a median does.
    std::vector<double> moved = gap;
    moved[24] = 24.0;
    const double step = harrellDavisMedian(gap) - harrellDavisMedian(moved);
    EXPECT_GT(step, 0.0);
    EXPECT_LT(step, 100.0 * 0.2);
}

class PerfbenchReference : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        std::string error;
        ASSERT_TRUE(ref_.load("perfbench/reference.tsv", &error))
            << error;
    }
    Reference ref_;
};

TEST_F(PerfbenchReference, CoversTheWholeDomain)
{
    for (const Pair &p : referenceDomain())
        EXPECT_NE(ref_.find(p.key()), nullptr) << p.key();
}

TEST_F(PerfbenchReference, PerturbedEntryMakesCellsFail)
{
    Plan plan = generate(WorkloadKind::PaperSweep, 5, 4);
    const Context ctx{WorkloadKind::PaperSweep, &ref_};
    {
        ilp::Study study(1);
        const PassResult clean = runPass(study, plan, ctx);
        EXPECT_EQ(clean.attempted, 4u);
        EXPECT_EQ(clean.failed, 0u);
    }
    Reference perturbed = ref_;
    const std::string key = plan.cells[0].pair.key();
    RefEntry e = *perturbed.find(key);
    e.cycles += 1.0;
    perturbed.set(key, e);
    const Context bad{WorkloadKind::PaperSweep, &perturbed};
    ilp::Study study(1);
    const PassResult res = runPass(study, plan, bad);
    EXPECT_GT(res.failed, 0u);
    EXPECT_GT(static_cast<double>(res.failed) /
                  static_cast<double>(res.attempted),
              0.0);
}

TEST_F(PerfbenchReference, TracedPassReportsEveryLayer)
{
    Plan plan = generate(WorkloadKind::PaperSweep, 9, 3);
    const Context ctx{WorkloadKind::PaperSweep, &ref_};
    ilp::Study study(1);
    Recorder rec;
    const PassResult res = runPass(study, plan, ctx, &rec);
    EXPECT_EQ(res.failed, 0u);
    const auto metrics = layerMetrics(rec, study, res, 1.0);
    std::map<std::string, double> by;
    for (const Metric &m : metrics)
        by[m.name] = m.value;
    EXPECT_GT(by["frontend.ms"], 0.0);
    EXPECT_GT(by["issue.ms"], 0.0);
    EXPECT_GT(by["trace.coverage"], 0.5);
    EXPECT_LE(by["trace.coverage"], 1.0);
    for (const Span &s : rec.spans())
        EXPECT_GE(s.end, s.start) << s.name;
}

TEST_F(PerfbenchReference, TracedPassCountsOnlyTheProgramsCompileLookups)
{
    // study.compile_hit_frac must be the program's figure: the lookups
    // only the traced pass makes are left out.
    for (WorkloadKind k : {WorkloadKind::PaperSweep, WorkloadKind::Retime,
                           WorkloadKind::Whatif}) {
        const Plan plan = generate(k, 7, 4);
        const Context ctx{k, &ref_};
        ilp::Study plainStudy(1);
        warmUp(plainStudy, plan, ctx, nullptr);
        PassResult plain = runPass(plainStudy, plan, ctx);
        ilp::Study tracedStudy(1);
        warmUp(tracedStudy, plan, ctx, nullptr);
        Recorder rec;
        PassResult traced = runPass(tracedStudy, plan, ctx, &rec);
        EXPECT_EQ(traced.failed, 0u) << workloadName(k);
        EXPECT_GT(plain.counters["compile.hits"] +
                      plain.counters["compile.misses"],
                  0.0)
            << workloadName(k);
        EXPECT_EQ(traced.counters["compile.hits"],
                  plain.counters["compile.hits"])
            << workloadName(k);
        EXPECT_EQ(traced.counters["compile.misses"],
                  plain.counters["compile.misses"])
            << workloadName(k);
    }
}

} // namespace
} // namespace perfbench
