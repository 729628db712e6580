#include "fko/harness.h"

#include <sstream>

#include "analysis/loopinfo.h"
#include "fko/compiler.h"

namespace ifko::fko {

GenericData makeGenericData(const std::vector<ir::Param>& params, int64_t n,
                            uint64_t seed, double alpha, int64_t strideElems) {
  GenericData data;
  // Integer parameters: the last is the (tuned, inner) length n; earlier
  // ones are outer dimensions fixed at 64.  Arrays are sized by the
  // product, so an MxN matrix operand fits.
  int numInts = 0;
  for (const auto& p : params) numInts += p.kind == ir::ParamKind::Int;
  int64_t product = n;
  for (int i = 1; i < numInts; ++i) product *= 64;
  const size_t elems = static_cast<size_t>(std::max<int64_t>(product, 1)) *
                       static_cast<size_t>(std::max<int64_t>(strideElems, 1));
  size_t totalVecBytes = 0;
  for (const auto& p : params)
    if (p.isPointer())
      totalVecBytes += elems * scalBytes(p.elemType()) + 256;
  data.mem = std::make_unique<sim::Memory>(totalVecBytes + (1 << 21));

  SplitMix64 rng(seed);
  for (const auto& p : params) {
    if (p.isPointer()) {
      size_t esize = scalBytes(p.elemType());
      size_t bytes = std::max<size_t>(elems * esize, 64);
      uint64_t addr = data.mem->allocate(bytes + 192, 64) + 192;
      kernels::fillUniform(*data.mem, addr, static_cast<int64_t>(elems),
                           p.elemType(), rng);
      data.arrays.push_back({p.name, addr, elems * esize, p.vecWritten});
      data.args.emplace_back(static_cast<int64_t>(addr));
    } else if (p.kind == ir::ParamKind::Int) {
      --numInts;
      data.args.emplace_back(numInts == 0 ? n : int64_t{64});
    } else {
      data.args.emplace_back(alpha);
      alpha = -alpha * 0.5;  // distinct value for a second scalar (e.g. beta)
    }
  }
  return data;
}

namespace {

/// Whether makeGenericData lays out identical operands for both parameter
/// lists (it reads only the name, kind and written flag of each).
bool sameOperands(const std::vector<ir::Param>& a,
                  const std::vector<ir::Param>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i].name != b[i].name || a[i].kind != b[i].kind ||
        a[i].vecWritten != b[i].vecWritten)
      return false;
  return true;
}

}  // namespace

DiffReference buildDiffReference(const std::string& hilSource, int64_t n,
                                 uint64_t seed) {
  DiffReference ref;
  ref.n = n;
  ref.seed = seed;
  CompileOptions plain;
  plain.runRepeatable = false;
  plain.runRegalloc = false;
  // The unoptimized lowering: no vectorization, no unrolling, no prefetch.
  plain.tuning.simdVectorize = false;
  plain.tuning.unroll = 1;
  plain.tuning.optimizeLoopControl = false;
  auto reference = compileKernel(hilSource, plain, arch::p4e());
  if (!reference.ok) {
    ref.error = "reference lowering failed: " + reference.error;
    return ref;
  }

  // A stride-k kernel touches k*n elements: size the operands accordingly.
  auto rep = analyzeKernel(hilSource, arch::p4e());
  if (rep.ok)
    for (const auto& a : rep.arrays)
      ref.strideElems = std::max(ref.strideElems, a.strideElems);
  ref.hasAccumulators = rep.ok && rep.numAccumulators > 0;
  ref.elem = rep.ok ? rep.elemType : ir::Scal::F64;
  ref.retType = reference.fn.retType;
  ref.params = reference.fn.params;

  ref.pristine = makeGenericData(reference.fn, n, seed, 0.75, ref.strideElems);
  ref.output = ref.pristine.clone();
  ref.error = kernels::runUntimed(sim::decodeFunction(reference.fn),
                                  *ref.output.mem, ref.output.args, "kernel",
                                  &ref.run);
  return ref;
}

DiffOutcome checkAgainstReference(const DiffReference& ref,
                                  const ir::Function& candidate) {
  return checkAgainstReference(ref, sim::decodeFunction(candidate));
}

DiffOutcome checkAgainstReference(const DiffReference& ref,
                                  const sim::DecodedFunction& candidate) {
  if (!ref.error.empty()) return {false, ref.error};
  GenericData candData = sameOperands(ref.params, candidate.params)
                             ? ref.pristine.clone()
                             : makeGenericData(candidate.params, ref.n,
                                               ref.seed, 0.75,
                                               ref.strideElems);
  const GenericData& refData = ref.output;

  sim::RunResult candRun;
  if (std::string err = kernels::runUntimed(candidate, *candData.mem,
                                            candData.args, "kernel", &candRun);
      !err.empty())
    return {false, err};

  // Written arrays must match.  Elementwise kernels match bitwise (the
  // transforms never change elementwise arithmetic); when the kernel has
  // accumulators, stored values may derive from reassociated reductions
  // (e.g. gemv's y[r]), so those compare with a precision tolerance.
  for (const auto& span : candData.arrays) {
    if (!span.written) continue;
    const GenericData::Span* refSpan = nullptr;
    for (const auto& s : refData.arrays)
      if (s.name == span.name) refSpan = &s;
    if (refSpan == nullptr)
      return {false, "candidate writes unknown array '" + span.name + "'"};
    if (!ref.hasAccumulators) {
      for (size_t off = 0; off < span.bytes; ++off) {
        uint8_t a = candData.mem->read<uint8_t>(span.addr + off);
        uint8_t b = refData.mem->read<uint8_t>(refSpan->addr + off);
        if (a != b) {
          std::ostringstream os;
          os << "output array '" << span.name << "' differs at byte " << off;
          return {false, os.str()};
        }
      }
      continue;
    }
    const size_t esize = scalBytes(ref.elem);
    for (size_t off = 0; off + esize <= span.bytes; off += esize) {
      double a = ref.elem == ir::Scal::F32
                     ? candData.mem->read<float>(span.addr + off)
                     : candData.mem->read<double>(span.addr + off);
      double b = ref.elem == ir::Scal::F32
                     ? refData.mem->read<float>(refSpan->addr + off)
                     : refData.mem->read<double>(refSpan->addr + off);
      if (!kernels::withinTolerance(a, b, ref.elem)) {
        std::ostringstream os;
        os << "output array '" << span.name << "' differs at element "
           << off / esize << ": " << a << " vs " << b;
        return {false, os.str()};
      }
    }
  }

  // Results.
  const sim::RunResult& refRun = ref.run;
  if (refRun.intResult.has_value() != candRun.intResult.has_value() ||
      refRun.fpResult.has_value() != candRun.fpResult.has_value())
    return {false, "result kind mismatch"};
  if (refRun.intResult && *refRun.intResult != *candRun.intResult) {
    std::ostringstream os;
    os << "index result " << *candRun.intResult << ", expected "
       << *refRun.intResult;
    return {false, os.str()};
  }
  if (refRun.fpResult) {
    double want = *refRun.fpResult, got = *candRun.fpResult;
    const ir::Scal prec =
        ref.retType == ir::RetType::F32 ? ir::Scal::F32 : ir::Scal::F64;
    if (!kernels::withinTolerance(got, want, prec)) {
      std::ostringstream os;
      os << "result " << got << ", expected " << want;
      return {false, os.str()};
    }
  }
  return {};
}

DiffOutcome testAgainstUnoptimized(const std::string& hilSource,
                                   const ir::Function& candidate, int64_t n,
                                   uint64_t seed) {
  return checkAgainstReference(buildDiffReference(hilSource, n, seed),
                               candidate);
}

sim::TimeResult timeCompiled(const arch::MachineConfig& machine,
                             const ir::Function& fn, int64_t n,
                             sim::TimeContext ctx, uint64_t seed,
                             int64_t strideElems, int64_t loopN,
                             const GenericData* tmpl) {
  return timeCompiled(machine, sim::decodeFunction(fn, machine), n, ctx, seed,
                      strideElems, loopN, tmpl);
}

sim::TimeResult timeCompiled(const arch::MachineConfig& machine,
                             const sim::DecodedFunction& dfn, int64_t n,
                             sim::TimeContext ctx, uint64_t seed,
                             int64_t strideElems, int64_t loopN,
                             const GenericData* tmpl) {
  const std::vector<ir::Param>& params = dfn.params;
  GenericData data = tmpl != nullptr
                         ? tmpl->clone()
                         : makeGenericData(params, n, seed, 0.75, strideElems);
  std::vector<sim::WarmSpan> warm;
  if (ctx == sim::TimeContext::InL2)
    for (const auto& span : data.arrays)
      warm.push_back({span.addr, span.bytes});
  // Truncated runs keep the full-size operands and shorten only the trip
  // count (the LAST integer parameter; see makeGenericData): the timed
  // region is an exact prefix of the full run.
  if (loopN > 0) {
    for (size_t i = params.size(); i-- > 0;) {
      if (params[i].kind != ir::ParamKind::Int) continue;
      data.args[i] = sim::ArgValue(loopN);
      break;
    }
  }
  return sim::timeRun(machine, dfn, *data.mem, data.args, warm);
}

}  // namespace ifko::fko
