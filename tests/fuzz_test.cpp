// HIL program fuzzer: generates random (well-formed) kernels and checks
// that every transform combination preserves their semantics, using the
// differential tester (candidate vs. unoptimized lowering).
//
// The generator produces single-loop kernels with 1-2 vector parameters,
// 0-2 FP scalar parameters, random expression trees over loads/scalars/
// constants, optional accumulators with RETURN, random loop direction, and
// random strides — i.e. the space of kernels the front end accepts, well
// beyond the BLAS seven.
#include <gtest/gtest.h>

#include <sstream>

#include "arch/machine.h"
#include "fko/compiler.h"
#include "fko/harness.h"
#include "liveness_reference.h"
#include "opt/loop_xform.h"
#include "opt/repeatable.h"
#include "support/rng.h"

namespace ifko {
namespace {

class KernelGen {
 public:
  explicit KernelGen(SplitMix64& rng) : rng_(rng) {}

  std::string generate() {
    numVecs_ = 1 + static_cast<int>(rng_.below(2));
    numScalars_ = static_cast<int>(rng_.below(3));
    numLocals_ = 1 + static_cast<int>(rng_.below(3));
    stride_ = rng_.below(4) == 0 ? 2 : 1;  // mostly unit stride
    bool f32 = rng_.below(2) == 0;
    bool down = rng_.below(4) == 0;
    hasAccum_ = rng_.below(2) == 0;
    writesY_ = numVecs_ == 2 && rng_.below(2) == 0;
    if (!writesY_ && !hasAccum_) hasAccum_ = true;  // do something observable

    std::ostringstream os;
    os << "ROUTINE fuzz;\nPARAMS :: X = VEC(" << (writesY_ || numVecs_ == 2 ? "in" : "in")
       << ")";
    if (numVecs_ == 2) os << ", Y = VEC(" << (writesY_ ? "inout" : "in") << ")";
    for (int i = 0; i < numScalars_; ++i) os << ", s" << i << " = SCALAR";
    os << ", N = INT;\nTYPE " << (f32 ? "float" : "double") << ";\n";
    os << "SCALARS :: ";
    for (int i = 0; i < numLocals_; ++i) os << (i ? ", " : "") << "t" << i;
    if (hasAccum_) os << ", acc";
    os << ";\n";
    if (hasAccum_) os << "acc = 0.0;\n";
    if (down)
      os << "LOOP i = N, 0, -1\n";
    else
      os << "LOOP i = 0, N\n";
    os << "LOOP_BODY\n";

    // Load phase: fill locals from arrays/expressions.
    for (int i = 0; i < numLocals_; ++i) {
      os << "  t" << i << " = " << expr(i) << ";\n";
      definedLocals_ = i + 1;
    }
    if (hasAccum_) {
      os << "  acc += " << expr(definedLocals_) << ";\n";
    }
    if (writesY_) {
      os << "  Y[0] = " << expr(definedLocals_) << ";\n";
    }
    os << "  X += " << stride_ << ";\n";
    if (numVecs_ == 2) os << "  Y += " << stride_ << ";\n";
    os << "LOOP_END\n";
    if (hasAccum_) os << "RETURN acc;\n";
    os << "END\n";
    return os.str();
  }

 private:
  /// A random FP expression over loads of X/Y, already-defined locals,
  /// scalar params, and literals.  `depthBudget` leaves lean trees.
  std::string expr(int definedLocals, int depth = 0) {
    if (depth >= 3 || rng_.below(3) == 0) return leaf(definedLocals);
    const char* ops[] = {"+", "-", "*"};
    std::string lhs = expr(definedLocals, depth + 1);
    std::string rhs = expr(definedLocals, depth + 1);
    std::string op = ops[rng_.below(3)];
    if (rng_.below(5) == 0)
      return "ABS (" + lhs + " " + op + " " + rhs + ")";
    return "(" + lhs + " " + op + " " + rhs + ")";
  }

  std::string leaf(int definedLocals) {
    switch (rng_.below(5)) {
      case 0:
        return "X[" + std::to_string(rng_.below(static_cast<uint64_t>(stride_))) + "]";
      case 1:
        if (numVecs_ == 2 && !writesY_)
          return "Y[" + std::to_string(rng_.below(static_cast<uint64_t>(stride_))) + "]";
        return "X[0]";
      case 2:
        if (definedLocals > 0)
          return "t" + std::to_string(rng_.below(static_cast<uint64_t>(definedLocals)));
        return "X[0]";
      case 3:
        if (numScalars_ > 0)
          return "s" + std::to_string(rng_.below(static_cast<uint64_t>(numScalars_)));
        return "0.5";
      default: {
        static const char* lits[] = {"0.25", "1.5", "2.0", "0.0"};
        return lits[rng_.below(4)];
      }
    }
  }

  SplitMix64& rng_;
  int numVecs_ = 1;
  int numScalars_ = 0;
  int numLocals_ = 1;
  int definedLocals_ = 0;
  int stride_ = 1;
  bool hasAccum_ = false;
  bool writesY_ = false;
};

opt::TuningParams randomParams(SplitMix64& rng) {
  opt::TuningParams p;
  p.simdVectorize = rng.below(2) == 0;
  p.unroll = static_cast<int>(rng.below(10)) + 1;
  p.accumExpand = static_cast<int>(rng.below(5)) + 1;
  p.optimizeLoopControl = rng.below(2) == 0;
  p.nonTemporalWrites = rng.below(2) == 0;
  p.blockFetch = rng.below(4) == 0;
  p.ciscIndexing = rng.below(4) == 0;
  for (const char* arr : {"X", "Y"}) {
    if (rng.below(2) == 0)
      p.prefetch[arr] = {true, static_cast<ir::PrefKind>(rng.below(4)),
                         static_cast<int>(rng.below(32)) * 64};
  }
  return p;
}

TEST(HilFuzz, RandomKernelsSurviveRandomTransforms) {
  SplitMix64 rng(0x1FC0DE);
  int generated = 0, compiled = 0;
  for (int iter = 0; iter < 120; ++iter) {
    KernelGen gen(rng);
    std::string src = gen.generate();
    ++generated;

    fko::CompileOptions opts;
    opts.tuning = randomParams(rng);
    auto r = fko::compileKernel(src, opts, rng.below(2) == 0
                                               ? arch::p4e()
                                               : arch::opteron());
    ASSERT_TRUE(r.ok) << "generated kernel failed to compile with "
                      << opts.tuning.str() << "\n--- source ---\n"
                      << src << "\nerror: " << r.error;
    ++compiled;

    int64_t n = static_cast<int64_t>(rng.below(200));
    auto diff = fko::testAgainstUnoptimized(src, r.fn, n, rng.next());
    ASSERT_TRUE(diff.ok) << "MISCOMPILE with " << opts.tuning.str() << " n="
                         << n << ": " << diff.message << "\n--- source ---\n"
                         << src;
  }
  EXPECT_EQ(generated, compiled);
}

TEST(HilFuzz, DenseLivenessMatchesSetReference) {
  SplitMix64 rng(0x11FE);
  for (int iter = 0; iter < 120; ++iter) {
    KernelGen gen(rng);
    const std::string src = gen.generate();
    const opt::TuningParams params = randomParams(rng);
    const arch::MachineConfig machine =
        rng.below(2) == 0 ? arch::p4e() : arch::opteron();
    const fko::LoweredKernel lowered = fko::lowerKernel(src);
    ASSERT_TRUE(lowered.ok) << lowered.error << "\n--- source ---\n" << src;
    const std::string where = "fuzz kernel " + std::to_string(iter) + " with " +
                              params.str() + "\n--- source ---\n" + src;
    ASSERT_TRUE(testing::livenessMatchesReference(lowered.fn, where + " (lowered)"));
    std::string err;
    auto fn = opt::applyFundamentalTransforms(lowered.fn, params, machine, &err);
    ASSERT_TRUE(fn.has_value()) << where << ": " << err;
    ASSERT_TRUE(testing::livenessMatchesReference(*fn, where + " (fundamental)"));
    (void)opt::runRepeatableReport(*fn);
    ASSERT_TRUE(testing::livenessMatchesReference(*fn, where + " (repeatable)"));
  }
}

TEST(HilFuzz, GeneratedSourcesAreDeterministic) {
  SplitMix64 a(7), b(7);
  KernelGen ga(a), gb(b);
  EXPECT_EQ(ga.generate(), gb.generate());
}

}  // namespace
}  // namespace ifko
