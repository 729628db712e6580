#include "kernels/level2.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "sim/decode.h"

namespace ifko::kernels {

namespace {

constexpr std::string_view kGemv = R"(
# y = A*x, row-major M x N.  The inner dot-product loop is the tuned one;
# x is re-read every row (nopref: resident after the first row), and the
# pointer rewind `X -= N` returns to the row start.
ROUTINE gemv;
PARAMS :: A = VEC(in), X = VEC(in,nopref), Y = VEC(out), M = INT, N = INT;
TYPE @T;
SCALARS :: a, x, acc;
LOOP r = 0, M
LOOP_BODY
  acc = 0.0;
  LOOP i = 0, N
  LOOP_BODY
    a = A[0];
    x = X[0];
    acc += a * x;
    A += 1;
    X += 1;
  LOOP_END
  Y[0] = acc;
  X -= N;
  Y += 1;
LOOP_END
END
)";

constexpr std::string_view kGer = R"(
# A += alpha * x * y^T, row-major M x N.  alpha*x[r] is computed in the
# outer body: a loop-invariant input the vectorizer broadcasts.
ROUTINE ger;
PARAMS :: A = VEC(inout), X = VEC(in,nopref), Y = VEC(in,nopref), alpha = SCALAR, M = INT, N = INT;
TYPE @T;
SCALARS :: a, xv, yv, ax;
LOOP r = 0, M
LOOP_BODY
  xv = X[0];
  ax = alpha * xv;
  LOOP i = 0, N
  LOOP_BODY
    a = A[0];
    yv = Y[0];
    a += ax * yv;
    A[0] = a;
    A += 1;
    Y += 1;
  LOOP_END
  Y -= N;
  X += 1;
LOOP_END
END
)";

/// Operand layout for an MxN problem: A (m*n), x, y, scalars, M, N.
struct L2Data {
  std::unique_ptr<sim::Memory> mem;
  uint64_t aAddr = 0, xAddr = 0, yAddr = 0;
  double alpha = 0.75;

  std::vector<sim::ArgValue> args(const ir::Function& fn, int64_t m,
                                  int64_t n) const {
    std::vector<sim::ArgValue> out;
    for (const auto& p : fn.params) {
      if (p.isPointer()) {
        uint64_t addr = p.name == "A" ? aAddr : p.name == "X" ? xAddr : yAddr;
        out.emplace_back(static_cast<int64_t>(addr));
      } else if (p.kind == ir::ParamKind::Int) {
        out.emplace_back(p.name == "M" ? m : n);
      } else {
        out.emplace_back(alpha);
      }
    }
    return out;
  }
};

L2Data makeL2Data(ir::Scal prec, int64_t m, int64_t n, uint64_t seed) {
  const size_t esize = scalBytes(prec);
  L2Data d;
  size_t bytes = static_cast<size_t>(m) * static_cast<size_t>(n) * esize +
                 static_cast<size_t>(m + n) * esize + (1 << 21);
  d.mem = std::make_unique<sim::Memory>(bytes);
  SplitMix64 rng(seed);
  auto fill = [&](int64_t count) {
    uint64_t addr = d.mem->allocate(
        std::max<size_t>(static_cast<size_t>(count) * esize, 64), 64);
    fillUniform(*d.mem, addr, count, prec, rng);
    return addr;
  };
  d.aAddr = fill(m * n);
  d.xAddr = fill(std::max<int64_t>(m, n));
  d.yAddr = fill(std::max<int64_t>(m, n));
  return d;
}

template <typename T>
L2Outcome testGemvT(const ir::Function& fn, int64_t m, int64_t n,
                    uint64_t seed) {
  const ir::Scal prec = precOf(fn);
  L2Data d = makeL2Data(prec, m, n, seed);
  auto A = readVector<T>(*d.mem, d.aAddr, m * n);
  auto x = readVector<T>(*d.mem, d.xAddr, n);

  if (std::string err = runUntimed(sim::decodeFunction(fn), *d.mem,
                                   d.args(fn, m, n), "gemv");
      !err.empty())
    return {false, err};

  for (int64_t r = 0; r < m; ++r) {
    T want = 0;
    for (int64_t c = 0; c < n; ++c)
      want += A[static_cast<size_t>(r * n + c)] * x[static_cast<size_t>(c)];
    T got = d.mem->read<T>(d.yAddr + static_cast<uint64_t>(r) * sizeof(T));
    if (!withinTolerance(got, want, prec)) {
      std::ostringstream os;
      os << "gemv: y[" << r << "] = " << got << ", expected " << want;
      return {false, os.str()};
    }
  }
  return {};
}

template <typename T>
L2Outcome testGerT(const ir::Function& fn, int64_t m, int64_t n,
                   uint64_t seed) {
  L2Data d = makeL2Data(precOf(fn), m, n, seed);
  auto A = readVector<T>(*d.mem, d.aAddr, m * n);
  auto x = readVector<T>(*d.mem, d.xAddr, m);
  auto y = readVector<T>(*d.mem, d.yAddr, n);
  T alpha = static_cast<T>(d.alpha);

  if (std::string err = runUntimed(sim::decodeFunction(fn), *d.mem,
                                   d.args(fn, m, n), "ger");
      !err.empty())
    return {false, err};

  for (int64_t r = 0; r < m; ++r) {
    // Same arithmetic shape as the kernel: ax = alpha*x[r]; a += ax*y[c].
    T ax = alpha * x[static_cast<size_t>(r)];
    for (int64_t c = 0; c < n; ++c) {
      T want = A[static_cast<size_t>(r * n + c)] + ax * y[static_cast<size_t>(c)];
      T got = d.mem->read<T>(d.aAddr +
                             static_cast<uint64_t>(r * n + c) * sizeof(T));
      if (got != want) {
        std::ostringstream os;
        os << "ger: A[" << r << "," << c << "] = " << got << ", expected "
           << want;
        return {false, os.str()};
      }
    }
  }
  return {};
}

}  // namespace

std::string gemvSource(ir::Scal prec) { return instantiateHil(kGemv, prec); }
std::string gerSource(ir::Scal prec) { return instantiateHil(kGer, prec); }

L2Outcome testGemv(const ir::Function& fn, int64_t m, int64_t n,
                   uint64_t seed) {
  return precOf(fn) == ir::Scal::F32 ? testGemvT<float>(fn, m, n, seed)
                                     : testGemvT<double>(fn, m, n, seed);
}

L2Outcome testGer(const ir::Function& fn, int64_t m, int64_t n,
                  uint64_t seed) {
  return precOf(fn) == ir::Scal::F32 ? testGerT<float>(fn, m, n, seed)
                                     : testGerT<double>(fn, m, n, seed);
}

sim::TimeResult timeGemv(const arch::MachineConfig& machine,
                         const ir::Function& fn, int64_t m, int64_t n,
                         sim::TimeContext ctx, uint64_t seed) {
  const ir::Scal prec = precOf(fn);
  L2Data d = makeL2Data(prec, m, n, seed);
  const uint64_t esize = scalBytes(prec);
  const uint64_t vecBytes = static_cast<uint64_t>(std::max(m, n)) * esize;
  std::vector<sim::WarmSpan> warm;
  if (ctx == sim::TimeContext::InL2)
    warm = {{d.aAddr, static_cast<uint64_t>(m * n) * esize},
            {d.xAddr, vecBytes},
            {d.yAddr, vecBytes}};
  return sim::timeRun(machine, sim::decodeFunction(fn, machine), *d.mem,
                      d.args(fn, m, n), warm);
}

}  // namespace ifko::kernels
