// Function, basic block, and loop mark-up containers.
//
// A Function is a layout-ordered list of basic blocks, mirroring emitted
// machine code: a block ends with an explicit terminator (jmp/ret), with a
// conditional branch followed by fall-through, or by falling through to the
// next block in layout order.  Branch labels refer to stable block ids, not
// layout positions, so transforms may insert and delete blocks freely.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/inst.h"
#include "ir/reg.h"
#include "ir/type.h"

namespace ifko::ir {

/// Kind of a kernel parameter.  Pointers and the trip count live in integer
/// registers; FP scalars (e.g. axpy's alpha) live in xmm registers, matching
/// how the ATLAS kernel timers hand arguments to the kernels.
enum class ParamKind : uint8_t { PtrF32, PtrF64, ScalF32, ScalF64, Int };

struct Param {
  std::string name;
  ParamKind kind;
  Reg reg;  ///< virtual register the parameter is bound to on entry
  // Mark-up carried down from HIL for vector parameters.
  bool vecRead = false;     ///< intent in/inout
  bool vecWritten = false;  ///< intent out/inout
  bool noPrefetch = false;  ///< user hint: operand already in cache

  [[nodiscard]] bool isPointer() const {
    return kind == ParamKind::PtrF32 || kind == ParamKind::PtrF64;
  }
  [[nodiscard]] Scal elemType() const {
    assert(isPointer() || kind == ParamKind::ScalF32 || kind == ParamKind::ScalF64);
    return (kind == ParamKind::PtrF32 || kind == ParamKind::ScalF32) ? Scal::F32
                                                                     : Scal::F64;
  }
};

struct BasicBlock {
  int32_t id = -1;
  std::vector<Inst> insts;

  /// Terminator if the block ends in Jmp or Ret; nullptr when it falls
  /// through (possibly after a trailing Jcc).
  [[nodiscard]] const Inst* hardTerminator() const {
    if (insts.empty()) return nullptr;
    const Inst& last = insts.back();
    return opInfo(last.op).isTerminator ? &last : nullptr;
  }
  [[nodiscard]] bool fallsThrough() const { return hardTerminator() == nullptr; }
};

enum class RetType : uint8_t { None, Int, F32, F64 };

enum class LoopDir : uint8_t { Up, Down };

/// The loop flagged for iterative tuning (paper: "we require that a loop be
/// flagged as important before it is empirically tuned").  Lowering fills
/// this in; the induction-normalization pass canonicalizes the fields the
/// fundamental transforms rely on.
struct LoopMark {
  bool valid = false;
  int32_t preheader = -1;  ///< block executed once before the loop
  int32_t header = -1;     ///< first body block (branch target of the latch)
  int32_t latch = -1;      ///< block with induction updates and the backedge
  int32_t exit = -1;       ///< first block after the loop
  Reg ivar;                ///< loop counter register
  LoopDir dir = LoopDir::Up;
  Reg bound;               ///< trip-count register (N); loop runs N iterations
  /// All body block ids (header..latch inclusive), in layout order.
  std::vector<int32_t> bodyBlocks;

  [[nodiscard]] bool contains(int32_t blockId) const {
    for (int32_t b : bodyBlocks)
      if (b == blockId) return true;
    return false;
  }
};

class Function {
 public:
  std::string name;
  std::vector<Param> params;
  RetType retType = RetType::None;
  std::vector<BasicBlock> blocks;  ///< layout order
  LoopMark loop;
  /// True once register allocation has mapped virtual registers to physical
  /// ones; sim::runDecoded then provides the spill area via the reserved
  /// base register.
  bool regAllocated = false;
  int32_t numSpillSlots = 0;

  // -- virtual register creation -------------------------------------------
  [[nodiscard]] Reg newIntReg() { return Reg::intReg(next_int_++); }
  [[nodiscard]] Reg newFpReg() { return Reg::fpReg(next_fp_++); }
  [[nodiscard]] int32_t maxIntReg() const { return next_int_; }
  [[nodiscard]] int32_t maxFpReg() const { return next_fp_; }

  // -- block management ------------------------------------------------------
  /// Appends an empty block at the end of the layout and returns its id.
  int32_t addBlock();
  /// Inserts an empty block at layout position `pos` and returns its id.
  int32_t insertBlockAt(size_t pos);
  /// Appends an empty block with a caller-chosen id (the IR text parser
  /// reconstructs dumped functions).  The id must not already exist.
  void addBlockWithId(int32_t id);
  /// Ensures future newIntReg()/newFpReg() ids exceed the given ids
  /// (used when reconstructing functions from text).
  void reserveRegs(int32_t maxIntId, int32_t maxFpId);
  [[nodiscard]] BasicBlock& block(int32_t id);
  [[nodiscard]] const BasicBlock& block(int32_t id) const;
  /// Layout position of block `id`, or npos when absent.
  [[nodiscard]] size_t layoutIndex(int32_t id) const;
  void removeBlock(int32_t id);

  [[nodiscard]] const Param* findParam(std::string_view pname) const;
  /// Total instruction count over all blocks (handy for tests).
  [[nodiscard]] size_t instCount() const;

 private:
  int32_t next_int_ = kVirtBase;
  int32_t next_fp_ = kVirtBase;
  int32_t next_block_ = 0;
};

}  // namespace ifko::ir
