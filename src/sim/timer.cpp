#include "sim/timer.h"

namespace ifko::sim {

std::string_view contextName(TimeContext ctx) {
  return ctx == TimeContext::OutOfCache ? "out-of-cache" : "in-L2";
}

std::optional<TimeContext> parseContextFlag(std::string_view flag) {
  if (flag == "ooc") return TimeContext::OutOfCache;
  if (flag == "inl2") return TimeContext::InL2;
  return std::nullopt;
}

TimeResult timeKernel(const arch::MachineConfig& machine,
                      const ir::Function& fn, const kernels::KernelSpec& spec,
                      int64_t n, TimeContext ctx, uint64_t seed, int64_t loopN,
                      const kernels::KernelData* tmpl) {
  return timeKernel(machine, decodeFunction(fn, machine), spec, n, ctx, seed,
                    loopN, tmpl);
}

TimeResult timeKernel(const arch::MachineConfig& machine,
                      const DecodedFunction& dfn,
                      const kernels::KernelSpec& spec, int64_t n,
                      TimeContext ctx, uint64_t seed, int64_t loopN,
                      const kernels::KernelData* tmpl) {
  kernels::KernelData data =
      tmpl != nullptr ? tmpl->clone() : kernels::makeKernelData(spec, n, seed);
  std::vector<WarmSpan> warm;
  if (ctx == TimeContext::InL2) {
    const uint64_t bytes =
        static_cast<uint64_t>(n) * scalBytes(spec.prec);
    warm.push_back({data.xAddr, bytes});
    if (data.yAddr != 0) warm.push_back({data.yAddr, bytes});
  }
  // Truncated runs keep the full-size operands and shorten only the loop
  // trip count: the timed region is an exact prefix of the full run.
  if (loopN > 0) data.n = loopN;
  return timeRun(machine, dfn, *data.mem, data.args(dfn.params), warm);
}

TimeResult timeRun(const arch::MachineConfig& machine,
                   const DecodedFunction& dfn, Memory& mem,
                   std::span<const ArgValue> args,
                   std::span<const WarmSpan> warm) {
  MemSystem memsys(machine);
  for (const WarmSpan& span : warm) memsys.warm(span.addr, span.bytes);
  memsys.resetStats();
  TimingModel timing(machine, memsys);
  RunResult run = runDecoded(dfn, mem, args, &timing);

  TimeResult out;
  out.cycles = timing.cycles();
  out.dynInsts = run.dynInsts;
  out.mem = memsys.stats();
  out.core = timing.stats();
  out.attr = timing.attribution();
  return out;
}

}  // namespace ifko::sim
