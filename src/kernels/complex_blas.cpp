#include "kernels/complex_blas.h"

#include <memory>
#include <sstream>
#include <vector>

#include "sim/decode.h"
#include "sim/memsys.h"
#include "support/rng.h"
#include "support/str.h"

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

template <typename T>
ComplexData makeData(int64_t n, uint64_t seed, bool twoVecs) {
  ComplexData d;
  size_t bytes = static_cast<size_t>(n) * 2 * sizeof(T);
  d.mem = std::make_unique<sim::Memory>(2 * bytes + (1 << 20));
  SplitMix64 rng(seed);
  auto fill = [&] {
    uint64_t addr = d.mem->allocate(std::max<size_t>(bytes, 64), 64);
    for (int64_t i = 0; i < 2 * n; ++i)
      d.mem->write<T>(addr + static_cast<uint64_t>(i) * sizeof(T),
                      static_cast<T>(rng.uniform(-1.0, 1.0)));
    return addr;
  };
  if (twoVecs) d.xAddr = fill();
  d.yAddr = fill();
  return d;
}

std::vector<sim::ArgValue> buildArgs(const ir::Function& fn,
                                     const ComplexData& d, int64_t n) {
  std::vector<sim::ArgValue> args;
  for (const auto& p : fn.params) {
    if (p.isPointer())
      args.emplace_back(static_cast<int64_t>(p.name == "X" ? d.xAddr : d.yAddr));
    else if (p.kind == ir::ParamKind::Int)
      args.emplace_back(n);
    else
      args.emplace_back(p.name == "ar" ? d.ar : d.ai);
  }
  return args;
}

ir::Scal precOf(const ir::Function& fn) {
  for (const auto& p : fn.params)
    if (p.isPointer()) return p.elemType();
  return ir::Scal::F64;
}

template <typename T>
ComplexOutcome check(const sim::Memory& mem, uint64_t addr, int64_t n,
                     const std::vector<T>& want, const char* which) {
  for (int64_t i = 0; i < 2 * n; ++i) {
    T got = mem.read<T>(addr + static_cast<uint64_t>(i) * sizeof(T));
    if (got != want[static_cast<size_t>(i)]) {
      std::ostringstream os;
      os << which << "[" << i / 2 << "]." << (i % 2 ? "im" : "re") << " = "
         << got << ", expected " << want[static_cast<size_t>(i)];
      return {false, os.str()};
    }
  }
  return {};
}

template <typename T>
ComplexOutcome testCscalT(const ir::Function& fn, int64_t n, uint64_t seed) {
  ComplexData d = makeData<T>(n, seed, /*twoVecs=*/false);
  std::vector<T> want(static_cast<size_t>(2 * n));
  T ar = static_cast<T>(d.ar), ai = static_cast<T>(d.ai);
  for (int64_t i = 0; i < n; ++i) {
    // Same expression shape as the kernel for bitwise agreement.
    T re = d.mem->read<T>(d.yAddr + static_cast<uint64_t>(2 * i) * sizeof(T));
    T im = d.mem->read<T>(d.yAddr + static_cast<uint64_t>(2 * i + 1) * sizeof(T));
    want[static_cast<size_t>(2 * i)] = ar * re - ai * im;
    want[static_cast<size_t>(2 * i + 1)] = ar * im + ai * re;
  }
  try {
    sim::runDecoded(sim::decodeFunction(fn), *d.mem, buildArgs(fn, d, n));
  } catch (const std::exception& e) {
    return {false, std::string("cscal faulted: ") + e.what()};
  }
  return check<T>(*d.mem, d.yAddr, n, want, "y");
}

template <typename T>
ComplexOutcome testCaxpyT(const ir::Function& fn, int64_t n, uint64_t seed) {
  ComplexData d = makeData<T>(n, seed, /*twoVecs=*/true);
  std::vector<T> want(static_cast<size_t>(2 * n));
  T ar = static_cast<T>(d.ar), ai = static_cast<T>(d.ai);
  for (int64_t i = 0; i < n; ++i) {
    T xr = d.mem->read<T>(d.xAddr + static_cast<uint64_t>(2 * i) * sizeof(T));
    T xi = d.mem->read<T>(d.xAddr + static_cast<uint64_t>(2 * i + 1) * sizeof(T));
    T yr = d.mem->read<T>(d.yAddr + static_cast<uint64_t>(2 * i) * sizeof(T));
    T yi = d.mem->read<T>(d.yAddr + static_cast<uint64_t>(2 * i + 1) * sizeof(T));
    want[static_cast<size_t>(2 * i)] = yr + (ar * xr - ai * xi);
    want[static_cast<size_t>(2 * i + 1)] = yi + (ar * xi + ai * xr);
  }
  try {
    sim::runDecoded(sim::decodeFunction(fn), *d.mem, buildArgs(fn, d, n));
  } catch (const std::exception& e) {
    return {false, std::string("caxpy faulted: ") + e.what()};
  }
  return check<T>(*d.mem, d.yAddr, n, want, "y");
}

}  // namespace

std::string cscalSource(ir::Scal prec) {
  return replaceAll(std::string(kCscal), "@T",
                    prec == ir::Scal::F32 ? "float" : "double");
}

std::string caxpySource(ir::Scal prec) {
  return replaceAll(std::string(kCaxpy), "@T",
                    prec == ir::Scal::F32 ? "float" : "double");
}

ComplexOutcome testCscal(const ir::Function& fn, int64_t n, uint64_t seed) {
  return precOf(fn) == ir::Scal::F32 ? testCscalT<float>(fn, n, seed)
                                     : testCscalT<double>(fn, n, seed);
}

ComplexOutcome testCaxpy(const ir::Function& fn, int64_t n, uint64_t seed) {
  return precOf(fn) == ir::Scal::F32 ? testCaxpyT<float>(fn, n, seed)
                                     : testCaxpyT<double>(fn, n, seed);
}

}  // namespace ifko::kernels
