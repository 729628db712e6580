// Complex Level 1 BLAS kernels (cscal/zscal, caxpy/zaxpy).
//
// The paper: "There are two main types of interest, real and complex
// numbers … In this work, we concentrate on single and double precision
// real numbers."  These kernels cover the deferred type: complex values in
// the standard interleaved [re, im, re, im, …] layout, expressed directly
// in HIL (two loads, the four-multiply rotation, two stores, a stride-2
// bump).  The stride keeps them off the SIMD path — real complex
// vectorization needs the shuffle patterns of [3] — but every other
// transform (UR/LC/PF/WNT, and the extensions) applies.
#pragma once

#include <cstdint>
#include <string>

#include "ir/function.h"
#include "ir/type.h"
#include "kernels/tester.h"

namespace ifko::kernels {

/// y[i] *= (ar + ai*i), n complex elements.
[[nodiscard]] std::string cscalSource(ir::Scal prec);
/// y[i] += (ar + ai*i) * x[i], n complex elements.
[[nodiscard]] std::string caxpySource(ir::Scal prec);

using ComplexOutcome = TestOutcome;

/// Checks a compiled cscal/caxpy against a host-side complex reference on
/// n complex elements.
[[nodiscard]] ComplexOutcome testCscal(const ir::Function& fn, int64_t n,
                                       uint64_t seed = 42);
[[nodiscard]] ComplexOutcome testCaxpy(const ir::Function& fn, int64_t n,
                                       uint64_t seed = 42);

}  // namespace ifko::kernels
