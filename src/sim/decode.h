// Pre-decoded execution form for the evaluation fast path.
//
// The functional interpreter (sim/interp.h) walks ir::Function block
// structure on every dynamic instruction: a block-position/instruction-index
// pair, a hash lookup per taken branch, and a per-dispatch cost-table switch
// inside the timing model.  None of that work depends on runtime state, so
// the decoder flattens a compiled function once into a dense array of
// DecodedInst -- instruction copy, resolved flat branch target, the
// interpreter's static pcId, and the precomputed TimingModel dispatch cost.
// runDecoded() then executes with a single integer program counter and feeds
// the timing model through its non-virtual onDecodedInst entry.
//
// Contract: runDecoded(decodeFunction(fn, m), ...) produces bit-identical
// results, cycle counts, and cycle attribution to Interp(fn, ...) with a
// TimingModel observer (tests/evalpipeline_test.cpp holds this).
#pragma once

#include <cstdint>
#include <vector>

#include "arch/machine.h"
#include "ir/function.h"
#include "sim/interp.h"
#include "sim/timing.h"

namespace ifko::sim {

/// One flattened instruction: everything the decoded loop needs without
/// touching block structure or the cost table.  The field order keeps it at
/// 128 bytes, two cache lines.
struct DecodedInst {
  ir::Inst inst;        ///< full copy; semantics read only this
  uint64_t pcId = 0;    ///< (block id << 20) | index, matching Interp
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
  size_t numBlocks = 0;  ///< preserved so empty-function errors match Interp

  [[nodiscard]] bool empty() const { return numBlocks == 0; }
};

/// Flatten `fn` for `machine`.  The machine config is baked into the
/// per-instruction costs, so a decoded function is machine-specific.
[[nodiscard]] DecodedFunction decodeFunction(const ir::Function& fn,
                                             const arch::MachineConfig& machine);

/// Execute a decoded function.  Mirrors Interp::run exactly: same argument
/// binding, same budget charging, same error messages, same observer
/// ordering -- but `timing` (optional) is driven through the non-virtual
/// fast path with precomputed costs.
RunResult runDecoded(const DecodedFunction& dfn, Memory& mem,
                     std::span<const ArgValue> args,
                     TimingModel* timing = nullptr,
                     uint64_t maxDynInsts = 1ull << 33);

}  // namespace ifko::sim
