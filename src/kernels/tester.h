// The tester from the paper's Figure 1: runs a compiled kernel on seeded
// data in the simulated machine's memory and checks the result against the
// reference implementation ("unnecessary in theory, but useful in
// practice").  Also provides the operand-placement helper shared with the
// timer, and the pieces every tester (Level 1, Level 2, complex, the
// differential harness) shares: one operand fill, one read-back, one
// guarded untimed run and one comparison rule.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ir/function.h"
#include "kernels/registry.h"
#include "sim/decode.h"
#include "sim/memory.h"
#include "support/rng.h"

namespace ifko::kernels {

/// Writes `count` elements of precision `prec` at `addr`, each a
/// uniform(-1, 1) draw from `rng` cast to the element type, in order.
void fillUniform(sim::Memory& mem, uint64_t addr, int64_t count,
                 ir::Scal prec, SplitMix64& rng);

/// Reads `count` elements of T starting at `addr`.
template <typename T>
[[nodiscard]] std::vector<T> readVector(const sim::Memory& mem, uint64_t addr,
                                        int64_t count) {
  std::vector<T> out(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i)
    out[static_cast<size_t>(i)] =
        mem.read<T>(addr + static_cast<uint64_t>(i) * sizeof(T));
  return out;
}

/// The element type of `fn`'s first vector parameter (F64 if it has none).
[[nodiscard]] ir::Scal precOf(const ir::Function& fn);

/// Runs `fn` untimed on `mem`.  Returns "" on success; a simulator fault
/// becomes "<what> faulted: <reason>".  `result`, when non-null, receives
/// the run's result.
[[nodiscard]] std::string runUntimed(const sim::DecodedFunction& fn,
                                     sim::Memory& mem,
                                     std::span<const sim::ArgValue> args,
                                     std::string_view what,
                                     sim::RunResult* result = nullptr);

/// The comparison rule for a value that reassociated arithmetic may
/// perturb (reductions, gemv's row sums): `got` passes when it is within a
/// relative tolerance of 5e-3 (F32) or 1e-8 (F64) of `want`, scaled by
/// max(1, |want|).  A non-finite `got` fails against a finite `want`.
[[nodiscard]] bool withinTolerance(double got, double want, ir::Scal prec);

/// Kernel operands placed in a simulated memory image.
struct KernelData {
  std::unique_ptr<sim::Memory> mem;
  uint64_t xAddr = 0;
  uint64_t yAddr = 0;
  int64_t n = 0;
  double alpha = 0.75;

  /// Arguments in the order of `fn`'s parameter list (matched by name for
  /// vectors, by kind for alpha/N).
  [[nodiscard]] std::vector<sim::ArgValue> args(const ir::Function& fn) const {
    return args(fn.params);
  }
  /// Same, from a bare parameter list (a DecodedFunction's params).
  [[nodiscard]] std::vector<sim::ArgValue> args(
      const std::vector<ir::Param>& params) const;

  /// A deep copy (fresh memory image).  Timed runs mutate their operands,
  /// so repeated evaluations clone a pristine template instead of paying
  /// the data-generation cost again; the clone is bit-for-bit the image
  /// makeKernelData would produce.
  [[nodiscard]] KernelData clone() const {
    KernelData out;
    out.mem = std::make_unique<sim::Memory>(*mem);
    out.xAddr = xAddr;
    out.yAddr = yAddr;
    out.n = n;
    out.alpha = alpha;
    return out;
  }
};

/// Allocates and initializes operands for `spec` at length `n` with
/// reproducible data.  `extraBytes` adds headroom (e.g. spill areas for many
/// timing runs).
[[nodiscard]] KernelData makeKernelData(const KernelSpec& spec, int64_t n,
                                        uint64_t seed = 42,
                                        size_t extraBytes = 1 << 20);

struct TestOutcome {
  bool ok = true;
  std::string message;
};

/// Executes `fn` against the reference implementation of `spec` on fresh
/// data of length `n`.  Element results must match bitwise (the transforms
/// never change elementwise arithmetic); reduction results are compared with
/// a precision-appropriate tolerance since vectorization and accumulator
/// expansion reassociate the sum.
[[nodiscard]] TestOutcome testKernel(const KernelSpec& spec,
                                     const ir::Function& fn, int64_t n,
                                     uint64_t seed = 42);
/// Same, on an already decoded function (its costs, if any, are unused).
[[nodiscard]] TestOutcome testKernel(const KernelSpec& spec,
                                     const sim::DecodedFunction& fn, int64_t n,
                                     uint64_t seed = 42);

}  // namespace ifko::kernels
