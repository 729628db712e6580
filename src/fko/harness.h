// Generic kernel harness: operand placement, differential testing, and
// timing for ANY HIL kernel, not just the surveyed BLAS.
//
// This is what "keeping the search in the compiler" (paper Section 1.1)
// buys: a user kernel with any signature can be tested and tuned without a
// hand-written reference implementation.  Correctness is established
// differentially — the candidate is compared against the *unoptimized*
// lowering of the same source on identical operands.  Elementwise outputs
// must match bitwise (the transforms never change elementwise arithmetic);
// scalar results are compared with a precision-appropriate tolerance since
// vectorization and accumulator expansion reassociate reductions.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "ir/function.h"
#include "kernels/tester.h"
#include "sim/decode.h"
#include "sim/timer.h"

namespace ifko::fko {

/// Operands for one kernel invocation, derived from the parameter list:
/// FP scalars get fixed distinct values; the LAST integer parameter gets n
/// and any earlier ones (outer dimensions, e.g. gemv's M) get 64; every
/// pointer parameter gets an array sized by the product of the integer
/// parameters times its stride, filled with reproducible values.
struct GenericData {
  std::unique_ptr<sim::Memory> mem;
  std::vector<sim::ArgValue> args;
  /// (address, bytes) per vector parameter, in parameter order.
  struct Span {
    std::string name;
    uint64_t addr = 0;
    size_t bytes = 0;
    bool written = false;
  };
  std::vector<Span> arrays;

  /// A deep copy (fresh memory image); see kernels::KernelData::clone().
  [[nodiscard]] GenericData clone() const {
    GenericData out;
    out.mem = std::make_unique<sim::Memory>(*mem);
    out.args = args;
    out.arrays = arrays;
    return out;
  }
};

/// `strideElems` scales every array allocation (a stride-k kernel touches
/// k*n elements over n iterations); derive it from the analysis when the
/// source is available.
[[nodiscard]] GenericData makeGenericData(const std::vector<ir::Param>& params,
                                          int64_t n, uint64_t seed = 42,
                                          double alpha = 0.75,
                                          int64_t strideElems = 1);
[[nodiscard]] inline GenericData makeGenericData(const ir::Function& fn,
                                                 int64_t n, uint64_t seed = 42,
                                                 double alpha = 0.75,
                                                 int64_t strideElems = 1) {
  return makeGenericData(fn.params, n, seed, alpha, strideElems);
}

using DiffOutcome = kernels::TestOutcome;

/// The unoptimized side of a differential test at one length: the plain
/// lowering's operands before and after its run, plus what the comparison
/// needs from the analysis.  It never changes with the candidate, so it is
/// built once per kernel and checked against every candidate; its images
/// are only read after construction, so threads may share one reference.
struct DiffReference {
  /// Nonempty when the reference itself failed (lowering or run); every
  /// check then fails with this message.
  std::string error;
  int64_t n = 0;
  uint64_t seed = 42;
  int64_t strideElems = 1;
  bool hasAccumulators = false;
  ir::Scal elem = ir::Scal::F64;
  ir::RetType retType = ir::RetType::None;
  std::vector<ir::Param> params;  ///< the reference's operand layout
  GenericData pristine;           ///< operands before any run
  GenericData output;             ///< operands after the reference run
  sim::RunResult run;
};

/// Lowers `hilSource` without optimization and runs it on operands of
/// length `n` (makeGenericData with `seed`).
[[nodiscard]] DiffReference buildDiffReference(const std::string& hilSource,
                                               int64_t n, uint64_t seed = 42);

/// Runs `candidate` on the reference's operands; compares written arrays
/// bitwise and scalar/index results (reductions with tolerance).
[[nodiscard]] DiffOutcome checkAgainstReference(const DiffReference& ref,
                                                const ir::Function& candidate);
/// Same, on an already decoded candidate (its costs, if any, are unused).
[[nodiscard]] DiffOutcome checkAgainstReference(
    const DiffReference& ref, const sim::DecodedFunction& candidate);

/// buildDiffReference + checkAgainstReference, for a one-off check.
[[nodiscard]] DiffOutcome testAgainstUnoptimized(const std::string& hilSource,
                                                 const ir::Function& candidate,
                                                 int64_t n, uint64_t seed = 42);

/// Times any compiled kernel at length n (generic analogue of
/// sim::timeKernel): decodes it for `machine`, then runs the
/// DecodedFunction overload below.
[[nodiscard]] sim::TimeResult timeCompiled(const arch::MachineConfig& machine,
                                           const ir::Function& fn, int64_t n,
                                           sim::TimeContext ctx,
                                           uint64_t seed = 42,
                                           int64_t strideElems = 1,
                                           int64_t loopN = 0,
                                           const GenericData* tmpl = nullptr);

/// Times a function decoded for `machine` (sim/decode.h).  InL2 pre-warms
/// every vector parameter.  `loopN` (0 = n) truncates the loop trip count
/// while the operands stay sized at `n` (see sim/timer.h); `tmpl` clones a
/// pristine operand image instead of regenerating the data.
[[nodiscard]] sim::TimeResult timeCompiled(const arch::MachineConfig& machine,
                                           const sim::DecodedFunction& dfn,
                                           int64_t n, sim::TimeContext ctx,
                                           uint64_t seed = 42,
                                           int64_t strideElems = 1,
                                           int64_t loopN = 0,
                                           const GenericData* tmpl = nullptr);

}  // namespace ifko::fko
