/** Property tests: randomized MT programs swept through the whole
 *  pipeline.  Invariants:
 *   1. every optimization level produces the same checksum;
 *   2. every machine produces the same checksum (timing never leaks
 *      into semantics);
 *   3. base-machine cycles == dynamic instruction count;
 *   4. on one fixed trace, wider issue is never slower, superscalar
 *      is never behind superpipelined of equal degree, and speedup
 *      never exceeds the degree;
 *   5. source-level unrolling preserves the checksum.
 */

#include <random>

#include <gtest/gtest.h>

#include "core/machine/models.hh"
#include "sim/issue.hh"
#include "tests/helpers.hh"

namespace ilp {
namespace {

/** Deterministic random MT program builder. */
class ProgramGen
{
  public:
    explicit ProgramGen(unsigned seed) : rng_(seed) {}

    std::string
    generate()
    {
        src_.clear();
        // Globals: two int arrays, one real array, two int scalars.
        src_ += "var int ga[16];\n";
        src_ += "var int gb[32];\n";
        src_ += "var real gr[16];\n";
        src_ += "var int gs = " + std::to_string(pick(100)) + ";\n";
        src_ += "var int gt = " + std::to_string(pick(100)) + ";\n";
        src_ += "var real result_fp;\n";

        // A helper function the main code may call.
        src_ += "func mix(int a, int b) : int {\n"
                "  var int r = a * 3 + b;\n"
                "  if (r < 0) { r = -r; }\n"
                "  return r % 9973;\n}\n";

        src_ += "func main() : int {\n";
        src_ += "  var int chk = 1;\n";
        for (int i = 0; i < 4; ++i) {
            std::string name = "v";
            name += std::to_string(i);
            src_ += "  var int " + name + " = " +
                    std::to_string(pick(50)) + ";\n";
            locals_.push_back(std::move(name));
        }
        src_ += "  var real rsum = 0.5;\n";

        int stmts = 4 + pick(6);
        for (int i = 0; i < stmts; ++i)
            emitStmt(1);

        // Fold state into the checksum.
        src_ += "  chk = (chk";
        for (const auto &v : locals_)
            src_ += " + " + v;
        src_ += " + gs + gt + ga[3] + gb[17]) % 1000003;\n";
        src_ += "  if (rsum < 100000.0 && rsum > -100000.0) {\n"
                "    chk = (chk + int(rsum * 16.0)) % 1000003;\n"
                "  }\n";
        src_ += "  result_fp = real(chk);\n";
        src_ += "  return chk;\n}\n";
        return src_;
    }

  private:
    int pick(int n) { return static_cast<int>(rng_() % n); }

    std::string
    intExpr(int depth)
    {
        if (depth <= 0 || pick(3) == 0) {
            switch (pick(readable_.empty() ? 4 : 5)) {
              case 0:
                return std::to_string(pick(200));
              case 1:
                return locals_[pick(locals_.size())];
              case 2:
                return "ga[" + indexExpr(16) + "]";
              case 3:
                return pick(2) ? "gs" : "gt";
              default:
                return readable_[pick(readable_.size())];
            }
        }
        std::string l = intExpr(depth - 1);
        std::string r = intExpr(depth - 1);
        switch (pick(7)) {
          case 0:
            return "(" + l + " + " + r + ")";
          case 1:
            return "(" + l + " - " + r + ")";
          case 2:
            // Keep products bounded so folding never overflows.
            return "((" + l + " * " + r + ") & 65535)";
          case 3:
            return "(" + l + " / " + std::to_string(1 + pick(9)) +
                   ")";
          case 4:
            return "(" + l + " % " + std::to_string(2 + pick(97)) +
                   ")";
          case 5:
            return "(" + l + " ^ " + r + ")";
          default:
            return "((" + l + " << " + std::to_string(pick(3)) +
                   ") & 262143)";
        }
    }

    std::string
    indexExpr(int size)
    {
        std::string e = "(";
        e += intExpr(1) + " & " + std::to_string(size - 1) + ")";
        return e;
    }

    std::string
    cmpExpr()
    {
        static const char *ops[] = {"<", "<=", ">", ">=", "==", "!="};
        // Drawn right to left, the order the generated programs have
        // always used.
        const std::string r = intExpr(1);
        const char *op = ops[pick(6)];
        std::string e = "(";
        e += intExpr(1) + " " + op + " " + r + ")";
        return e;
    }

    void
    emitStmt(int depth)
    {
        switch (pick(depth < 3 ? 7 : 4)) {
          case 0: // scalar assignment
            src_ += "  " + locals_[pick(locals_.size())] + " = " +
                    intExpr(2) + ";\n";
            break;
          case 1: // array store
            if (pick(2))
                src_ += "  ga[" + indexExpr(16) + "] = " + intExpr(2) +
                        ";\n";
            else
                src_ += "  gb[" + indexExpr(32) + "] = " + intExpr(2) +
                        ";\n";
            break;
          case 2: // global scalar update
            src_ += std::string("  ") + (pick(2) ? "gs" : "gt") +
                    " = (" + intExpr(2) + ") % 100003;\n";
            break;
          case 3: // real work
            src_ += "  rsum = (rsum + real(" + intExpr(1) +
                    ") * 0.25) * 0.5;\n";
            src_ += "  gr[" + indexExpr(16) + "] = rsum;\n";
            break;
          case 4: { // counted loop
            std::string v = "i" + std::to_string(loop_counter_++);
            src_ += "  var int " + v + ";\n";
            src_ += "  for (" + v + " = 0; " + v + " < " +
                    std::to_string(3 + pick(14)) + "; " + v + " = " +
                    v + " + 1) {\n";
            // The loop variable is readable inside the body but must
            // never be assigned (that would break termination and
            // unroll eligibility).
            readable_.push_back(v);
            emitStmt(depth + 1);
            emitStmt(depth + 1);
            readable_.pop_back();
            src_ += "  }\n";
            break;
          }
          case 5: // if/else
            src_ += "  if " + cmpExpr() + " {\n";
            emitStmt(depth + 1);
            src_ += "  } else {\n";
            emitStmt(depth + 1);
            src_ += "  }\n";
            break;
          default: // helper call
            src_ += "  " + locals_[pick(locals_.size())] +
                    " = mix(" + intExpr(1) + ", " + intExpr(1) +
                    ");\n";
            break;
        }
    }

    std::mt19937 rng_;
    std::string src_;
    std::vector<std::string> locals_;
    std::vector<std::string> readable_;
    int loop_counter_ = 0;
};

class PropertyTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PropertyTest, OptimizationLevelsPreserveSemantics)
{
    ProgramGen gen(GetParam());
    std::string src = gen.generate();
    std::int64_t want =
        test::runOptimized(src, OptLevel::None, idealSuperscalar(4));
    for (int level = 1; level <= 4; ++level) {
        EXPECT_EQ(test::runOptimized(src,
                                     static_cast<OptLevel>(level),
                                     idealSuperscalar(4)),
                  want)
            << "seed " << GetParam() << " level " << level << "\n"
            << src;
    }
}

TEST_P(PropertyTest, MachinesPreserveSemantics)
{
    ProgramGen gen(GetParam() + 1000);
    std::string src = gen.generate();
    std::int64_t want =
        test::runOptimized(src, OptLevel::RegAlloc, baseMachine());
    for (const MachineConfig &mc :
         {superpipelined(3), cray1(), multiTitan(),
          superscalarWithClassConflicts(4),
          superpipelinedSuperscalar(2, 2)}) {
        EXPECT_EQ(test::runOptimized(src, OptLevel::RegAlloc, mc),
                  want)
            << "seed " << GetParam() << " machine " << mc.name;
    }
}

TEST_P(PropertyTest, BaseMachineCyclesEqualInstructions)
{
    ProgramGen gen(GetParam() + 2000);
    std::string src = gen.generate();
    Module m = compileToIr(src);
    OptimizeOptions oo;
    oo.level = OptLevel::RegAlloc;
    optimizeModule(m, baseMachine(), oo);
    Interpreter interp(m);
    IssueEngine engine(baseMachine());
    RunResult r = interp.run("main", &engine);
    EXPECT_DOUBLE_EQ(engine.baseCycles(),
                     static_cast<double>(r.instructions));
}

TEST_P(PropertyTest, TimingMonotoneOnFixedTrace)
{
    ProgramGen gen(GetParam() + 3000);
    std::string src = gen.generate();
    Module m = compileToIr(src);
    OptimizeOptions oo;
    oo.level = OptLevel::RegAlloc;
    optimizeModule(m, idealSuperscalar(8), oo);
    Interpreter interp(m);
    TraceBuffer trace;
    RunResult r = interp.run("main", &trace);

    double base = simulateTrace(trace, baseMachine());
    EXPECT_DOUBLE_EQ(base, static_cast<double>(r.instructions));
    double prev = base;
    for (int degree : {2, 3, 4, 8}) {
        double ss = simulateTrace(trace, idealSuperscalar(degree));
        double sp = simulateTrace(trace, superpipelined(degree));
        // Wider is never slower on the same trace.
        EXPECT_LE(ss, prev + 1e-9) << degree;
        // Supersymmetry: superscalar leads at equal degree.
        EXPECT_LE(ss, sp + 1e-9) << degree;
        // Speedup can't exceed the degree.
        EXPECT_LE(base / ss, degree + 1e-9);
        EXPECT_LE(base / sp, degree + 1e-9);
        prev = ss;
    }
}

TEST_P(PropertyTest, UnrollingPreservesSemantics)
{
    ProgramGen gen(GetParam() + 4000);
    std::string src = gen.generate();
    std::int64_t want =
        test::runOptimized(src, OptLevel::RegAlloc, baseMachine());
    for (int factor : {2, 3, 5}) {
        UnrollOptions u;
        u.factor = factor;
        EXPECT_EQ(test::runOptimized(src, OptLevel::RegAlloc,
                                     baseMachine(),
                                     AliasLevel::Conservative, u),
                  want)
            << "seed " << GetParam() << " factor " << factor;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Range(1u, 26u));

} // namespace
} // namespace ilp
