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
  MemSystem mem(machine);
  if (ctx == TimeContext::InL2) {
    const uint64_t bytes =
        static_cast<uint64_t>(n) * scalBytes(spec.prec);
    mem.warm(data.xAddr, bytes);
    if (data.yAddr != 0) mem.warm(data.yAddr, bytes);
  }
  // Warming displaces lines and would otherwise leak eviction counts into
  // the timed run's stats; the timed region starts from a clean slate.
  mem.resetStats();
  // Truncated runs keep the full-size operands and shorten only the loop
  // trip count: the timed region is an exact prefix of the full run.
  if (loopN > 0) data.n = loopN;
  TimingModel timing(machine, mem);
  RunResult run = runDecoded(dfn, *data.mem, data.args(dfn.params), &timing);

  TimeResult out;
  out.cycles = timing.cycles();
  out.dynInsts = run.dynInsts;
  out.mem = mem.stats();
  out.core = timing.stats();
  out.attr = timing.attribution();
  return out;
}

}  // namespace ifko::sim
