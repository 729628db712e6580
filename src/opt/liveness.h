// Global liveness analysis over virtual (and physical) registers.
// Shared by dead-code elimination, the peephole and the register allocator.
//
// Blocks are indexed by layout position and registers by the function's
// dense ir::RegIndex; each block's live-in and live-out set is a bitset.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "ir/function.h"
#include "ir/regset.h"

namespace ifko::opt {

/// The registers one instruction reads, in a fixed-capacity array: up to
/// three sources plus a memory base and index.
struct UsedRegs {
  std::array<ir::Reg, 5> regs;
  uint8_t n = 0;

  void push(ir::Reg r) { regs[n++] = r; }
  [[nodiscard]] size_t size() const { return n; }
  [[nodiscard]] ir::Reg operator[](size_t i) const { return regs[i]; }
  [[nodiscard]] const ir::Reg* begin() const { return regs.data(); }
  [[nodiscard]] const ir::Reg* end() const { return regs.data() + n; }
};

/// Registers read by `in` (sources, memory operands, ret value).
[[nodiscard]] UsedRegs usedRegs(const ir::Inst& in);
/// Register written by `in`, or invalid.
[[nodiscard]] ir::Reg definedReg(const ir::Inst& in);

struct Liveness {
  ir::RegIndex regs;
  std::vector<ir::RegSet> liveIn;   ///< by layout position
  std::vector<ir::RegSet> liveOut;  ///< by layout position
};

[[nodiscard]] Liveness computeLiveness(const ir::Function& fn);

}  // namespace ifko::opt
