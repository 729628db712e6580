#include "kernels/tester.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "kernels/reference.h"

namespace ifko::kernels {

std::vector<sim::ArgValue> KernelData::args(
    const std::vector<ir::Param>& params) const {
  std::vector<sim::ArgValue> out;
  double scalar = alpha;
  for (const auto& p : params) {
    if (p.isPointer()) {
      // Single-vector kernels (scal names its vector Y) store it at xAddr.
      bool useY = p.name == "Y" && yAddr != 0;
      out.emplace_back(static_cast<int64_t>(useY ? yAddr : xAddr));
    } else if (p.kind == ir::ParamKind::Int) {
      out.emplace_back(n);
    } else {
      // Successive FP scalars (e.g. rot's c and s) get distinct values.
      out.emplace_back(scalar);
      scalar = -scalar * 0.5;
    }
  }
  return out;
}

void fillUniform(sim::Memory& mem, uint64_t addr, int64_t count,
                 ir::Scal prec, SplitMix64& rng) {
  for (int64_t i = 0; i < count; ++i) {
    const double v = rng.uniform(-1.0, 1.0);
    if (prec == ir::Scal::F32)
      mem.write<float>(addr + static_cast<uint64_t>(i) * 4,
                       static_cast<float>(v));
    else
      mem.write<double>(addr + static_cast<uint64_t>(i) * 8, v);
  }
}

ir::Scal precOf(const ir::Function& fn) {
  for (const auto& p : fn.params)
    if (p.isPointer()) return p.elemType();
  return ir::Scal::F64;
}

std::string runUntimed(const sim::DecodedFunction& fn, sim::Memory& mem,
                       std::span<const sim::ArgValue> args,
                       std::string_view what, sim::RunResult* result) {
  try {
    sim::RunResult run = sim::runDecoded(fn, mem, args);
    if (result != nullptr) *result = run;
  } catch (const std::exception& e) {
    return std::string(what) + " faulted: " + e.what();
  }
  return {};
}

bool withinTolerance(double got, double want, ir::Scal prec) {
  const double tol = prec == ir::Scal::F32 ? 5e-3 : 1e-8;
  // A NaN or infinite result never matches a finite expectation.
  if (std::isfinite(want) && !std::isfinite(got)) return false;
  // Negated "outside the tolerance": a NaN difference, possible here only
  // when `want` is not finite, passes.
  return !(std::fabs(got - want) > tol * std::max(1.0, std::fabs(want)));
}

namespace {

template <typename T>
TestOutcome testKernelT(const KernelSpec& spec, const sim::DecodedFunction& fn,
                        int64_t n, uint64_t seed) {
  KernelData data = makeKernelData(spec, n, seed);
  std::vector<T> hx = readVector<T>(*data.mem, data.xAddr, n);
  std::vector<T> hy;
  if (spec.numVecs() == 2) hy = readVector<T>(*data.mem, data.yAddr, n);
  T alpha = static_cast<T>(data.alpha);

  // Reference result on host copies.
  double refFp = 0;
  int64_t refIdx = 0;
  switch (spec.op) {
    case BlasOp::Swap: refSwap<T>(hx, hy); break;
    case BlasOp::Scal: refScal<T>(hx, alpha); break;  // single vector: "Y"
    case BlasOp::Copy: refCopy<T>(hx, hy); break;
    case BlasOp::Axpy: refAxpy<T>(hx, hy, alpha); break;
    case BlasOp::Dot: refFp = refDot<T>(hx, hy); break;
    case BlasOp::Asum: refFp = refAsum<T>(hx); break;
    case BlasOp::Iamax: refIdx = refIamax<T>(std::span<const T>(hx)); break;
    case BlasOp::Rot:
      refRot<T>(hx, hy, alpha, static_cast<T>(-data.alpha * 0.5));
      break;
  }

  sim::RunResult run;
  if (std::string err =
          runUntimed(fn, *data.mem, data.args(fn.params), "kernel", &run);
      !err.empty())
    return {false, err};

  auto fail = [&](const std::string& msg) { return TestOutcome{false, msg}; };

  // Elementwise outputs must match exactly.
  auto checkVec = [&](uint64_t addr, const std::vector<T>& want,
                      const char* which) -> TestOutcome {
    std::vector<T> got = readVector<T>(*data.mem, addr, n);
    for (int64_t i = 0; i < n; ++i) {
      if (got[static_cast<size_t>(i)] != want[static_cast<size_t>(i)]) {
        std::ostringstream os;
        os << spec.name() << ": " << which << "[" << i
           << "] = " << got[static_cast<size_t>(i)] << ", expected "
           << want[static_cast<size_t>(i)];
        return {false, os.str()};
      }
    }
    return {true, ""};
  };

  switch (spec.op) {
    case BlasOp::Swap: {
      auto r = checkVec(data.xAddr, hx, "X");
      if (!r.ok) return r;
      return checkVec(data.yAddr, hy, "Y");
    }
    case BlasOp::Scal:
      return checkVec(data.xAddr, hx, "Y");
    case BlasOp::Copy:
    case BlasOp::Axpy:
      return checkVec(data.yAddr, hy, "Y");
    case BlasOp::Dot:
    case BlasOp::Asum: {
      if (!run.fpResult) return fail(spec.name() + ": missing fp result");
      double got = *run.fpResult;
      if (!withinTolerance(got, refFp, spec.prec)) {
        std::ostringstream os;
        os << spec.name() << ": result " << got << ", expected " << refFp;
        return fail(os.str());
      }
      return {true, ""};
    }
    case BlasOp::Rot: {
      auto r = checkVec(data.xAddr, hx, "X");
      if (!r.ok) return r;
      return checkVec(data.yAddr, hy, "Y");
    }
    case BlasOp::Iamax: {
      if (!run.intResult) return fail(spec.name() + ": missing int result");
      if (*run.intResult != refIdx) {
        std::ostringstream os;
        os << spec.name() << ": index " << *run.intResult << ", expected "
           << refIdx;
        return fail(os.str());
      }
      return {true, ""};
    }
  }
  return {true, ""};
}

}  // namespace

KernelData makeKernelData(const KernelSpec& spec, int64_t n, uint64_t seed,
                          size_t extraBytes) {
  const size_t esize = scalBytes(spec.prec);
  const size_t vecBytes = static_cast<size_t>(n) * esize;
  KernelData data;
  // Two vectors + gap + headroom.  Vectors are 64-byte aligned as the ATLAS
  // timers allocate them.
  data.mem = std::make_unique<sim::Memory>(2 * vecBytes + extraBytes + 4096);
  data.n = n;
  SplitMix64 rng(seed);
  data.xAddr = data.mem->allocate(std::max<size_t>(vecBytes, 64), 64);
  fillUniform(*data.mem, data.xAddr, n, spec.prec, rng);
  if (spec.numVecs() == 2) {
    // A 192-byte gap keeps X and Y from sharing a cache line while still
    // letting them conflict in the cache like real consecutive mallocs.
    data.yAddr = data.mem->allocate(std::max<size_t>(vecBytes, 64) + 192, 64) + 192;
    fillUniform(*data.mem, data.yAddr, n, spec.prec, rng);
  }
  return data;
}

TestOutcome testKernel(const KernelSpec& spec, const ir::Function& fn,
                       int64_t n, uint64_t seed) {
  return testKernel(spec, sim::decodeFunction(fn), n, seed);
}

TestOutcome testKernel(const KernelSpec& spec, const sim::DecodedFunction& fn,
                       int64_t n, uint64_t seed) {
  if (spec.prec == ir::Scal::F32) return testKernelT<float>(spec, fn, n, seed);
  return testKernelT<double>(spec, fn, n, seed);
}

}  // namespace ifko::kernels
