// Registry of the surveyed Level 1 BLAS kernels (paper Table 1).
//
// Each kernel exists in single (s) and double (d) precision; the registry
// carries the HIL source, the FLOP accounting used for MFLOPS reporting
// (copy/swap do no FP arithmetic but are conventionally counted at N, see
// the paper's Table 1), and the argument shape.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ir/type.h"

namespace ifko::kernels {

enum class BlasOp : uint8_t { Swap, Scal, Copy, Axpy, Dot, Asum, Iamax, Rot };

struct KernelSpec {
  BlasOp op;
  ir::Scal prec;  ///< F32 or F64

  /// BLAS-style name: sswap, ddot, isamax, ...
  [[nodiscard]] std::string name() const;
  /// FLOPs charged per call at length n (paper Table 1 FLOPs column).
  [[nodiscard]] double flops(int64_t n) const;
  /// Number of vector operands (X[,Y]).
  [[nodiscard]] int numVecs() const;
  [[nodiscard]] bool hasAlpha() const;
  /// 'f' fp return (dot/asum), 'i' int return (iamax), 0 none.
  [[nodiscard]] char retClass() const;
  /// HIL source with the precision substituted in.
  [[nodiscard]] std::string hilSource() const;
};

[[nodiscard]] std::string_view opName(BlasOp op);

/// Substitutes the element type for `@T` in a precision-generic HIL source:
/// how every in-code kernel (Level 1, gemv/ger, complex) gets its s/d form.
[[nodiscard]] std::string instantiateHil(std::string_view src, ir::Scal prec);

/// The paper's 14 surveyed kernels in its presentation order:
/// swap, copy, asum, axpy, dot, scal, iamax — s then d within each.
[[nodiscard]] const std::vector<KernelSpec>& allKernels();

/// The paper's 7 operations (both precisions share one spec shape).
[[nodiscard]] const std::vector<BlasOp>& allOps();

/// allKernels() plus kernels beyond the paper's survey (currently rot, the
/// Givens plane rotation) — used to exercise the toolchain's generality.
[[nodiscard]] const std::vector<KernelSpec>& extendedKernels();

}  // namespace ifko::kernels
