// The timer from the paper's Figure 1 (standing in for the ATLAS L1 BLAS
// kernel timers): runs a compiled kernel on the co-simulated machine and
// reports cycle-accurate results.
//
// Two usage contexts from the paper's evaluation:
//  * OutOfCache: operands start uncached (N=80000 in the paper);
//  * InL2: operands are pre-loaded into the caches before timing (N=1024),
//    the ATLAS timers' cache-warming protocol.
//
// The simulator is deterministic, so the paper's repeat-six-take-minimum
// protocol collapses to a single run.
#pragma once

#include <optional>
#include <span>
#include <string_view>

#include "arch/machine.h"
#include "ir/function.h"
#include "kernels/registry.h"
#include "kernels/tester.h"
#include "sim/decode.h"
#include "sim/memsys.h"
#include "sim/timing.h"

namespace ifko::sim {

enum class TimeContext { OutOfCache, InL2 };

struct TimeResult {
  uint64_t cycles = 0;
  uint64_t dynInsts = 0;
  MemSystem::Stats mem;
  TimingModel::Stats core;
  Attribution attr;  ///< per-cause cycle attribution; attr.total() == cycles

  /// MFLOPS given the FLOP count charged for the run.
  [[nodiscard]] double mflops(double flops, double ghz) const {
    if (cycles == 0) return 0;
    return flops * ghz * 1000.0 / static_cast<double>(cycles);
  }
};

/// One range of operand memory that an in-L2 run pre-loads into the caches.
struct WarmSpan {
  uint64_t addr = 0;
  uint64_t bytes = 0;
};

/// The timed run behind every kernel timer: builds `machine`'s memory
/// system, warms `warm` in order, resets the memory counters (warming
/// displaces lines, and its evictions must not reach the timed run's
/// stats), then runs `dfn` (decoded for `machine`) on `mem` with `args`
/// under a TimingModel and reports every TimeResult field, `attr` included.
/// The timers differ only in the operands they lay out in `mem`.
[[nodiscard]] TimeResult timeRun(const arch::MachineConfig& machine,
                                 const DecodedFunction& dfn, Memory& mem,
                                 std::span<const ArgValue> args,
                                 std::span<const WarmSpan> warm = {});

/// Times `fn` (a compiled kernel for `spec`) at length `n`: decodes it for
/// `machine`, then runs the DecodedFunction overload below.
[[nodiscard]] TimeResult timeKernel(const arch::MachineConfig& machine,
                                    const ir::Function& fn,
                                    const kernels::KernelSpec& spec, int64_t n,
                                    TimeContext ctx, uint64_t seed = 42,
                                    int64_t loopN = 0,
                                    const kernels::KernelData* tmpl = nullptr);

/// Times a function decoded for `machine` (sim/decode.h).
///
/// `loopN` (0 = n) truncates the *iteration count* while the operands stay
/// sized at `n`: the run is then an exact prefix of the full-length run —
/// identical addresses, identical code.  `tmpl`, when non-null, is a
/// pristine operand image for (spec, n, seed) that is cloned instead of
/// re-generating the data; the clone is bit-identical to a fresh
/// makeKernelData, just cheaper.
[[nodiscard]] TimeResult timeKernel(const arch::MachineConfig& machine,
                                    const DecodedFunction& dfn,
                                    const kernels::KernelSpec& spec, int64_t n,
                                    TimeContext ctx, uint64_t seed = 42,
                                    int64_t loopN = 0,
                                    const kernels::KernelData* tmpl = nullptr);

/// Display and key name: "out-of-cache" | "in-L2".
[[nodiscard]] std::string_view contextName(TimeContext ctx);
/// The flag spelling (--context=, the serve protocol's context=): "ooc" or
/// "inl2"; nullopt for anything else.
[[nodiscard]] std::optional<TimeContext> parseContextFlag(
    std::string_view flag);

}  // namespace ifko::sim
