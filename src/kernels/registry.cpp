#include "kernels/registry.h"

#include "support/str.h"

namespace ifko::kernels {

namespace {

// HIL sources, straight translations of the ANSI C reference loops from the
// paper's Table 1 (and Figure 6 for dot and iamax).  `@T` is replaced by the
// requested precision.
constexpr std::string_view kSwap = R"(
ROUTINE swap;
PARAMS :: X = VEC(inout), Y = VEC(inout), N = INT;
TYPE @T;
SCALARS :: x, y;
LOOP i = 0, N
LOOP_BODY
  x = X[0];
  y = Y[0];
  Y[0] = x;
  X[0] = y;
  X += 1;
  Y += 1;
LOOP_END
END
)";

constexpr std::string_view kScal = R"(
ROUTINE scal;
PARAMS :: Y = VEC(inout), alpha = SCALAR, N = INT;
TYPE @T;
SCALARS :: y;
LOOP i = 0, N
LOOP_BODY
  y = Y[0];
  y *= alpha;
  Y[0] = y;
  Y += 1;
LOOP_END
END
)";

constexpr std::string_view kCopy = R"(
ROUTINE copy;
PARAMS :: X = VEC(in), Y = VEC(out), N = INT;
TYPE @T;
SCALARS :: x;
LOOP i = 0, N
LOOP_BODY
  x = X[0];
  Y[0] = x;
  X += 1;
  Y += 1;
LOOP_END
END
)";

constexpr std::string_view kAxpy = R"(
ROUTINE axpy;
PARAMS :: X = VEC(in), Y = VEC(inout), alpha = SCALAR, N = INT;
TYPE @T;
SCALARS :: x, y;
LOOP i = 0, N
LOOP_BODY
  x = X[0];
  y = Y[0];
  y += alpha * x;
  Y[0] = y;
  X += 1;
  Y += 1;
LOOP_END
END
)";

constexpr std::string_view kDot = R"(
ROUTINE dot;
PARAMS :: X = VEC(in), Y = VEC(in), N = INT;
TYPE @T;
SCALARS :: x, y, dot;
dot = 0.0;
LOOP i = 0, N
LOOP_BODY
  x = X[0];
  y = Y[0];
  dot += x * y;
  X += 1;
  Y += 1;
LOOP_END
RETURN dot;
END
)";

constexpr std::string_view kAsum = R"(
ROUTINE asum;
PARAMS :: X = VEC(in), N = INT;
TYPE @T;
SCALARS :: x, sum;
sum = 0.0;
LOOP i = 0, N
LOOP_BODY
  x = X[0];
  x = ABS x;
  sum += x;
  X += 1;
LOOP_END
RETURN sum;
END
)";

// The paper's Figure 6(b) formulation: the conditional update is out of
// line (no scoped ifs in HIL), which keeps the fall-through path branch-free.
constexpr std::string_view kIamax = R"(
ROUTINE iamax;
PARAMS :: X = VEC(in), N = INT;
TYPE @T;
SCALARS :: x, amax;
INTS :: imax;
imax = 0;
amax = -1.0;
LOOP i = N, 0, -1
LOOP_BODY
  x = X[0];
  x = ABS x;
  IF (x > amax) GOTO NEWMAX;
ENDOFLOOP:
  X += 1;
LOOP_END
RETURN imax;
NEWMAX:
  amax = x;
  imax = N - i;
  GOTO ENDOFLOOP;
END
)";

// Givens plane rotation — a Level 1 BLAS routine beyond the paper's
// survey, used to exercise the toolchain's generality (two FP scalar
// parameters, two inout vectors).
constexpr std::string_view kRot = R"(
ROUTINE rot;
PARAMS :: X = VEC(inout), Y = VEC(inout), c = SCALAR, s = SCALAR, N = INT;
TYPE @T;
SCALARS :: x, y, xr, yr;
LOOP i = 0, N
LOOP_BODY
  x = X[0];
  y = Y[0];
  xr = c * x + s * y;
  yr = c * y - s * x;
  X[0] = xr;
  Y[0] = yr;
  X += 1;
  Y += 1;
LOOP_END
END
)";

std::string_view rawSource(BlasOp op) {
  switch (op) {
    case BlasOp::Swap: return kSwap;
    case BlasOp::Scal: return kScal;
    case BlasOp::Copy: return kCopy;
    case BlasOp::Axpy: return kAxpy;
    case BlasOp::Dot: return kDot;
    case BlasOp::Asum: return kAsum;
    case BlasOp::Iamax: return kIamax;
    case BlasOp::Rot: return kRot;
  }
  return "";
}

}  // namespace

std::string_view opName(BlasOp op) {
  switch (op) {
    case BlasOp::Swap: return "swap";
    case BlasOp::Scal: return "scal";
    case BlasOp::Copy: return "copy";
    case BlasOp::Axpy: return "axpy";
    case BlasOp::Dot: return "dot";
    case BlasOp::Asum: return "asum";
    case BlasOp::Iamax: return "iamax";
    case BlasOp::Rot: return "rot";
  }
  return "?";
}

std::string KernelSpec::name() const {
  std::string p = prec == ir::Scal::F32 ? "s" : "d";
  if (op == BlasOp::Iamax) return "i" + p + "amax";
  return p + std::string(opName(op));
}

double KernelSpec::flops(int64_t n) const {
  switch (op) {
    case BlasOp::Swap:
    case BlasOp::Scal:
    case BlasOp::Copy:
      return static_cast<double>(n);
    case BlasOp::Axpy:
    case BlasOp::Dot:
    case BlasOp::Asum:
    case BlasOp::Iamax:
      return 2.0 * static_cast<double>(n);
    case BlasOp::Rot:
      return 6.0 * static_cast<double>(n);
  }
  return 0;
}

int KernelSpec::numVecs() const {
  switch (op) {
    case BlasOp::Scal:
    case BlasOp::Asum:
    case BlasOp::Iamax:
      return 1;
    default:
      return 2;
  }
}

bool KernelSpec::hasAlpha() const {
  return op == BlasOp::Scal || op == BlasOp::Axpy || op == BlasOp::Rot;
}

char KernelSpec::retClass() const {
  switch (op) {
    case BlasOp::Dot:
    case BlasOp::Asum:
      return 'f';
    case BlasOp::Iamax:
      return 'i';
    default:
      return 0;
  }
}

std::string instantiateHil(std::string_view src, ir::Scal prec) {
  return replaceAll(std::string(src), "@T",
                    prec == ir::Scal::F32 ? "float" : "double");
}

std::string KernelSpec::hilSource() const {
  return instantiateHil(rawSource(op), prec);
}

const std::vector<KernelSpec>& allKernels() {
  static const std::vector<KernelSpec> kAll = [] {
    std::vector<KernelSpec> v;
    for (BlasOp op : allOps())
      for (ir::Scal p : {ir::Scal::F32, ir::Scal::F64}) v.push_back({op, p});
    return v;
  }();
  return kAll;
}

const std::vector<KernelSpec>& extendedKernels() {
  static const std::vector<KernelSpec> kAll = [] {
    std::vector<KernelSpec> v = allKernels();
    for (ir::Scal p : {ir::Scal::F32, ir::Scal::F64})
      v.push_back({BlasOp::Rot, p});
    return v;
  }();
  return kAll;
}

const std::vector<BlasOp>& allOps() {
  static const std::vector<BlasOp> kOps = {
      BlasOp::Swap, BlasOp::Copy, BlasOp::Asum, BlasOp::Axpy,
      BlasOp::Dot,  BlasOp::Scal, BlasOp::Iamax};
  return kOps;
}

}  // namespace ifko::kernels
