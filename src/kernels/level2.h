// Level 2 BLAS kernels built on the nested-loop support — the direction the
// paper points at ("outer-loop specialized transformations... which we plan
// to add"): the inner (tuned) loop gets the full SV/UR/LC/AE/PF/WNT
// treatment while the outer row loop lowers plainly.
//
// gemv: y = A*x (row-major M x N); ger: A += alpha * x * y^T.
#pragma once

#include <cstdint>
#include <string>

#include "arch/machine.h"
#include "ir/function.h"
#include "ir/type.h"
#include "kernels/tester.h"
#include "sim/timer.h"

namespace ifko::kernels {

/// HIL source for y = A*x (row-major, inner loop over columns).
[[nodiscard]] std::string gemvSource(ir::Scal prec);
/// HIL source for A += alpha * x * y^T (row-major, inner loop over columns).
[[nodiscard]] std::string gerSource(ir::Scal prec);

using L2Outcome = TestOutcome;

/// Runs the compiled gemv/ger against a host-side reference on an MxN
/// problem with reproducible data.
[[nodiscard]] L2Outcome testGemv(const ir::Function& fn, int64_t m, int64_t n,
                                 uint64_t seed = 42);
[[nodiscard]] L2Outcome testGer(const ir::Function& fn, int64_t m, int64_t n,
                                uint64_t seed = 42);

/// Times a compiled Level 2 kernel on the simulated machine.
[[nodiscard]] sim::TimeResult timeGemv(const arch::MachineConfig& machine,
                                       const ir::Function& fn, int64_t m,
                                       int64_t n, sim::TimeContext ctx,
                                       uint64_t seed = 42);

}  // namespace ifko::kernels
