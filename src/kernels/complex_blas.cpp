#include "kernels/complex_blas.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "sim/decode.h"

namespace ifko::kernels {

namespace {

constexpr std::string_view kCscal = R"(
# y *= alpha over interleaved complex values; N counts complex elements.
ROUTINE cscal;
PARAMS :: Y = VEC(inout), ar = SCALAR, ai = SCALAR, N = INT;
TYPE @T;
SCALARS :: re, im, tr, ti;
LOOP i = 0, N
LOOP_BODY
  re = Y[0];
  im = Y[1];
  tr = ar * re - ai * im;
  ti = ar * im + ai * re;
  Y[0] = tr;
  Y[1] = ti;
  Y += 2;
LOOP_END
END
)";

constexpr std::string_view kCaxpy = R"(
# y += alpha * x over interleaved complex values; N counts complex elements.
ROUTINE caxpy;
PARAMS :: X = VEC(in), Y = VEC(inout), ar = SCALAR, ai = SCALAR, N = INT;
TYPE @T;
SCALARS :: xr, xi, yr, yi;
LOOP i = 0, N
LOOP_BODY
  xr = X[0];
  xi = X[1];
  yr = Y[0];
  yi = Y[1];
  yr = yr + (ar * xr - ai * xi);
  yi = yi + (ar * xi + ai * xr);
  Y[0] = yr;
  Y[1] = yi;
  X += 2;
  Y += 2;
LOOP_END
END
)";

struct ComplexData {
  std::unique_ptr<sim::Memory> mem;
  uint64_t xAddr = 0, yAddr = 0;
  double ar = 0.75, ai = -0.375;
};

ComplexData makeData(ir::Scal prec, int64_t n, uint64_t seed, bool twoVecs) {
  ComplexData d;
  size_t bytes = static_cast<size_t>(n) * 2 * scalBytes(prec);
  d.mem = std::make_unique<sim::Memory>(2 * bytes + (1 << 20));
  SplitMix64 rng(seed);
  auto fill = [&] {
    uint64_t addr = d.mem->allocate(std::max<size_t>(bytes, 64), 64);
    fillUniform(*d.mem, addr, 2 * n, prec, rng);
    return addr;
  };
  if (twoVecs) d.xAddr = fill();
  d.yAddr = fill();
  return d;
}

/// Runs `fn` (named `what` in a fault message) on `d`.
std::string runComplex(const ir::Function& fn, const ComplexData& d, int64_t n,
                       std::string_view what) {
  std::vector<sim::ArgValue> args;
  for (const auto& p : fn.params) {
    if (p.isPointer())
      args.emplace_back(static_cast<int64_t>(p.name == "X" ? d.xAddr : d.yAddr));
    else if (p.kind == ir::ParamKind::Int)
      args.emplace_back(n);
    else
      args.emplace_back(p.name == "ar" ? d.ar : d.ai);
  }
  return runUntimed(sim::decodeFunction(fn), *d.mem, args, what);
}

template <typename T>
ComplexOutcome check(const sim::Memory& mem, uint64_t addr, int64_t n,
                     const std::vector<T>& want, const char* which) {
  const std::vector<T> got = readVector<T>(mem, addr, 2 * n);
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      std::ostringstream os;
      os << which << "[" << i / 2 << "]." << (i % 2 ? "im" : "re") << " = "
         << got[i] << ", expected " << want[i];
      return {false, os.str()};
    }
  }
  return {};
}

template <typename T>
ComplexOutcome testCscalT(const ir::Function& fn, int64_t n, uint64_t seed) {
  ComplexData d = makeData(precOf(fn), n, seed, /*twoVecs=*/false);
  const std::vector<T> y = readVector<T>(*d.mem, d.yAddr, 2 * n);
  std::vector<T> want(y.size());
  T ar = static_cast<T>(d.ar), ai = static_cast<T>(d.ai);
  for (size_t i = 0; i < want.size(); i += 2) {
    // Same expression shape as the kernel for bitwise agreement.
    want[i] = ar * y[i] - ai * y[i + 1];
    want[i + 1] = ar * y[i + 1] + ai * y[i];
  }
  if (std::string err = runComplex(fn, d, n, "cscal"); !err.empty())
    return {false, err};
  return check<T>(*d.mem, d.yAddr, n, want, "y");
}

template <typename T>
ComplexOutcome testCaxpyT(const ir::Function& fn, int64_t n, uint64_t seed) {
  ComplexData d = makeData(precOf(fn), n, seed, /*twoVecs=*/true);
  const std::vector<T> x = readVector<T>(*d.mem, d.xAddr, 2 * n);
  const std::vector<T> y = readVector<T>(*d.mem, d.yAddr, 2 * n);
  std::vector<T> want(y.size());
  T ar = static_cast<T>(d.ar), ai = static_cast<T>(d.ai);
  for (size_t i = 0; i < want.size(); i += 2) {
    want[i] = y[i] + (ar * x[i] - ai * x[i + 1]);
    want[i + 1] = y[i + 1] + (ar * x[i + 1] + ai * x[i]);
  }
  if (std::string err = runComplex(fn, d, n, "caxpy"); !err.empty())
    return {false, err};
  return check<T>(*d.mem, d.yAddr, n, want, "y");
}

}  // namespace

std::string cscalSource(ir::Scal prec) { return instantiateHil(kCscal, prec); }
std::string caxpySource(ir::Scal prec) { return instantiateHil(kCaxpy, prec); }

ComplexOutcome testCscal(const ir::Function& fn, int64_t n, uint64_t seed) {
  return precOf(fn) == ir::Scal::F32 ? testCscalT<float>(fn, n, seed)
                                     : testCscalT<double>(fn, n, seed);
}

ComplexOutcome testCaxpy(const ir::Function& fn, int64_t n, uint64_t seed) {
  return precOf(fn) == ir::Scal::F32 ? testCaxpyT<float>(fn, n, seed)
                                     : testCaxpyT<double>(fn, n, seed);
}

}  // namespace ifko::kernels
