// The simulator's one execution engine: a compiled function flattened into
// a dense array of DecodedInst -- instruction copy, resolved flat branch
// target, a stable static pcId, and (for timed runs) the precomputed
// TimingModel dispatch cost.  runDecoded() executes it with a single integer
// program counter.  It serves both roles from the paper's Figure 1: the
// tester (an untimed run: did the transformed kernel compute the right
// answer?) and the timer (a run that feeds every executed instruction to a
// TimingModel through its non-virtual onDecodedInst entry).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "arch/machine.h"
#include "ir/function.h"
#include "sim/memory.h"
#include "sim/timing.h"

namespace ifko::sim {

/// One 16-byte xmm register value with typed lane access.
struct VReg16 {
  alignas(16) std::array<uint8_t, 16> b{};

  [[nodiscard]] double d(int lane) const {
    double v;
    std::memcpy(&v, b.data() + lane * 8, 8);
    return v;
  }
  void setD(int lane, double v) { std::memcpy(b.data() + lane * 8, &v, 8); }
  [[nodiscard]] float f(int lane) const {
    float v;
    std::memcpy(&v, b.data() + lane * 4, 4);
    return v;
  }
  void setF(int lane, float v) { std::memcpy(b.data() + lane * 4, &v, 4); }
};

/// Argument for one kernel parameter: integer/pointer or FP scalar.
using ArgValue = std::variant<int64_t, double>;

struct RunResult {
  std::optional<int64_t> intResult;
  std::optional<double> fpResult;
  uint64_t dynInsts = 0;
};

/// One flattened instruction: everything the decoded loop needs without
/// touching block structure or the cost table.  The field order keeps it at
/// 128 bytes, two cache lines.
struct DecodedInst {
  ir::Inst inst;        ///< full copy; semantics read only this
  uint64_t pcId = 0;    ///< (block id << 20) | index in the block
  uint32_t target = 0;  ///< flat index of the branch target (Jmp/Jcc)
  InstCost cost;        ///< precomputed TimingModel dispatch cost
};

/// A function flattened into layout order, plus the header fields the
/// runner needs (parameter binding, spill area, register file sizing).
struct DecodedFunction {
  std::vector<DecodedInst> insts;
  std::vector<ir::Param> params;
  ir::RetType retType = ir::RetType::None;
  bool regAllocated = false;
  int numSpillSlots = 0;
  size_t maxIntReg = 0;
  size_t maxFpReg = 0;
  size_t numBlocks = 0;  ///< 0 for a function with no blocks at all
  /// Name of the machine whose costs are baked into `insts`; empty when the
  /// function was decoded without costs (untimed runs only).
  std::string machine;

  [[nodiscard]] bool empty() const { return numBlocks == 0; }
};

/// Flatten `fn` for `machine`.  The machine config is baked into the
/// per-instruction costs, so a decoded function is machine-specific.
[[nodiscard]] DecodedFunction decodeFunction(const ir::Function& fn,
                                             const arch::MachineConfig& machine);

/// Flatten `fn` without instruction costs: enough for untimed runs (the
/// tester, differential references), which have no machine.
[[nodiscard]] DecodedFunction decodeFunction(const ir::Function& fn);

/// Binds `args` (one per parameter, same order) and executes from the first
/// instruction until Ret, feeding `timing` (optional) every executed
/// instruction.  Throws std::runtime_error on machine faults (bad memory
/// access, dynamic instruction budget exceeded), and std::invalid_argument
/// when `timing` is given but `dfn` carries no costs or another machine's.
RunResult runDecoded(const DecodedFunction& dfn, Memory& mem,
                     std::span<const ArgValue> args,
                     TimingModel* timing = nullptr,
                     uint64_t maxDynInsts = 1ull << 33);

}  // namespace ifko::sim
