// The point of putting the search in the compiler rather than a library
// generator (paper Section 1.1): tuning a kernel ATLAS knows nothing about.
//
// This example writes a new kernel in HIL — axpby: y = alpha*x + beta*y —
// and drives the compiler, tester, and timer layers directly in a small
// hand-rolled line search over unroll and prefetch distance.
//
//   $ ./custom_kernel
#include <cstdio>
#include <vector>

#include "arch/machine.h"
#include "fko/compiler.h"
#include "kernels/tester.h"
#include "search/linesearch.h"
#include "sim/decode.h"
#include "sim/timer.h"

namespace {

constexpr const char* kAxpby = R"(
# y[i] = alpha*x[i] + beta*y[i] -- not a Level 1 BLAS routine ATLAS tunes.
ROUTINE axpby;
PARAMS :: X = VEC(in), Y = VEC(inout), alpha = SCALAR, beta = SCALAR, N = INT;
TYPE double;
SCALARS :: x, y;
LOOP i = 0, N
LOOP_BODY
  x = X[0];
  y = Y[0];
  y = alpha * x + beta * y;
  Y[0] = y;
  X += 1;
  Y += 1;
LOOP_END
END
)";

struct Run {
  uint64_t cycles = 0;
  bool correct = false;
};

// Place operands, execute, verify against a host-side reference, and time.
Run runOnce(const ifko::ir::Function& fn, const ifko::arch::MachineConfig& m,
            int64_t n) {
  using namespace ifko;
  Run out;
  const double alpha = 1.25, beta = -0.5;

  sim::Memory mem(static_cast<size_t>(n) * 16 + (1 << 20));
  uint64_t xAddr = mem.allocate(static_cast<size_t>(n) * 8, 64);
  uint64_t yAddr = mem.allocate(static_cast<size_t>(n) * 8, 64);
  SplitMix64 rng(99);
  kernels::fillUniform(mem, xAddr, n, ir::Scal::F64, rng);
  kernels::fillUniform(mem, yAddr, n, ir::Scal::F64, rng);
  const std::vector<double> hx = kernels::readVector<double>(mem, xAddr, n);
  const std::vector<double> hy = kernels::readVector<double>(mem, yAddr, n);

  std::vector<sim::ArgValue> args;
  for (const auto& p : fn.params) {
    if (p.isPointer())
      args.emplace_back(static_cast<int64_t>(p.name == "Y" ? yAddr : xAddr));
    else if (p.kind == ir::ParamKind::Int)
      args.emplace_back(n);
    else
      args.emplace_back(p.name == "alpha" ? alpha : beta);
  }
  // Out of cache: no operand is warmed before the timed run.
  out.cycles = sim::timeRun(m, sim::decodeFunction(fn, m), mem, args).cycles;

  const std::vector<double> got = kernels::readVector<double>(mem, yAddr, n);
  out.correct = true;
  for (size_t i = 0; i < got.size(); ++i)
    if (got[i] != alpha * hx[i] + beta * hy[i]) out.correct = false;
  return out;
}

}  // namespace

int main() {
  using namespace ifko;
  arch::MachineConfig machine = arch::opteron();
  const int64_t n = 40000;

  // What does FKO's analysis say about this loop?
  auto report = fko::analyzeKernel(kAxpby, machine);
  if (!report.ok) {
    std::fprintf(stderr, "analysis failed: %s\n", report.error.c_str());
    return 1;
  }
  std::printf("axpby analysis: vectorizable=%s, arrays=%zu, "
              "accumulators=%d\n\n",
              report.vectorizable ? "yes" : "no", report.arrays.size(),
              report.numAccumulators);

  // A small hand-rolled line search over (unroll, prefetch distance).
  opt::TuningParams best = search::fkoDefaults(report, machine);
  uint64_t bestCycles = UINT64_MAX;
  for (int ur : {1, 2, 4, 8}) {
    for (int distLines : {0, 2, 8, 16, 32}) {
      opt::TuningParams p = best;
      p.unroll = ur;
      for (auto& [name, pf] : p.prefetch) {
        pf.enabled = distLines > 0;
        pf.distBytes = distLines * machine.lineBytes();
      }
      fko::CompileOptions opts;
      opts.tuning = p;
      auto compiled = fko::compileKernel(kAxpby, opts, machine);
      if (!compiled.ok) continue;
      Run r = runOnce(compiled.fn, machine, n);
      if (!r.correct) {
        std::fprintf(stderr, "wrong answer at UR=%d dist=%d!\n", ur, distLines);
        return 1;
      }
      std::printf("  UR=%d PF dist=%2d lines -> %9llu cycles\n", ur, distLines,
                  static_cast<unsigned long long>(r.cycles));
      if (r.cycles < bestCycles) {
        bestCycles = r.cycles;
        best = p;
      }
    }
  }
  std::printf("\nbest: %s (%llu cycles, %.2f cycles/element)\n",
              best.str().c_str(), static_cast<unsigned long long>(bestCycles),
              static_cast<double>(bestCycles) / static_cast<double>(n));
  return 0;
}
