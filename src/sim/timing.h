// Out-of-order core timing model.
//
// Consumes the executed-instruction stream of sim::runDecoded (sim/decode.h)
// and produces a cycle count.  The model is a scoreboard with the
// structural limits that matter for the paper's transforms:
//
//  * issue width and ROB size (bounds memory-level parallelism, which is
//    why software prefetch still matters on an OOO core);
//  * per-unit latencies and occupancy (FP add/mul chains bound reductions
//    -- the stall accumulator expansion removes; 128-bit SSE ops occupy
//    their unit for two cycles on these 64-bit-datapath machines);
//  * a 2-bit branch predictor with a deep-pipeline mispredict penalty
//    (why scalar iamax suffers on data with frequent new maxima and why
//    its unrolled loop control matters);
//  * the memory system (MemSystem) for loads/stores/prefetches.
//
// "Modern x86 architectures are relatively insensitive to scheduling" --
// the paper's observation holds here too: within the window, execution
// order is chosen by operand readiness, not program order.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "arch/machine.h"
#include "ir/function.h"
#include "sim/budget.h"
#include "sim/memsys.h"

namespace ifko::sim {

/// What the timing model sees for each executed instruction.
struct InstEvent {
  const ir::Inst* inst = nullptr;
  uint64_t addr = 0;         ///< effective address for memory ops, else 0
  uint32_t accessBytes = 0;  ///< size of the memory access, 0 if none
  bool taken = false;        ///< branch outcome (conditional branches)
  uint64_t pcId = 0;         ///< stable id of the static instruction
};

/// The closed set of causes every simulated cycle is charged to.  Each
/// instruction's advance of the completion front is partitioned along its
/// critical path: front-end restart after a mispredict, ROB-full pressure,
/// steady in-order issue, waiting on an FP (or integer/address) operand,
/// functional-unit occupancy, the memory level that served its access, or
/// store commit/drain.  See TimingModel::attribution().
enum class StallCause : uint8_t {
  Issue,       ///< steady-state in-order issue (front-end pacing)
  FpDep,       ///< FP dependency chain: waiting on / exposing FP latency
  IntDep,      ///< integer/address dependency (incl. exposed int latency)
  Rob,         ///< reorder-buffer (window) pressure
  Mispredict,  ///< front-end restart after a branch mispredict
  Unit,        ///< functional-unit occupancy
  MemL1,       ///< load-to-use latency served by the L1
  MemL2,       ///< L1 miss served by the L2
  MemMain,     ///< miss to main memory (bus + DRAM latency)
  Store,       ///< store commit, store-buffer and WC-buffer drain
};
inline constexpr size_t kNumStallCauses = 10;

/// Trace/cache field name ("issue", "fp_dep", "mem_main", ...).
[[nodiscard]] std::string_view stallCauseName(StallCause c);

/// Cycles charged per cause.  The accounting identity: total() of the
/// attribution equals TimingModel::cycles() exactly — every cycle the
/// completion front advanced is charged to exactly one cause.
struct Attribution {
  std::array<uint64_t, kNumStallCauses> cycles{};

  [[nodiscard]] uint64_t of(StallCause c) const {
    return cycles[static_cast<size_t>(c)];
  }
  [[nodiscard]] uint64_t total() const {
    uint64_t t = 0;
    for (uint64_t v : cycles) t += v;
    return t;
  }
  /// MemL1 + MemL2 + MemMain + Store: every memory-system stall.
  [[nodiscard]] uint64_t memoryStalls() const {
    return of(StallCause::MemL1) + of(StallCause::MemL2) +
           of(StallCause::MemMain) + of(StallCause::Store);
  }
  friend bool operator==(const Attribution&, const Attribution&) = default;
};

/// Functional-unit class an instruction dispatches to.
enum class ExecUnit : uint8_t { Int, FpAdd, FpMul, FpAny, Load, Store, None };

/// Static dispatch cost of one instruction: unit class, result latency, and
/// unit occupancy, plus the opcode facts the scoreboard reads (ir::OpInfo).
/// Depends only on the opcode and the machine config, so the decoder
/// (sim/decode.h) precomputes it once per static instruction instead of
/// re-deriving it on every dynamic dispatch.
struct InstCost {
  ExecUnit unit = ExecUnit::None;
  int latency = 1;
  int occupancy = 1;
  uint8_t numSrcs = 0;      ///< ir::OpInfo::numSrcs
  bool hasDst = false;      ///< ir::OpInfo::hasDst
  bool isStore = false;     ///< ir::OpInfo::writesMem
  bool touchesMem = false;  ///< ir::touchesMem
  bool readsFlags = false;  ///< ir::OpInfo::readsFlags
  bool setsFlags = false;   ///< ir::OpInfo::setsFlags
};

/// The cost table itself (the decoder bakes it into every DecodedInst).
[[nodiscard]] InstCost instCost(const ir::Inst& inst,
                                const arch::MachineConfig& cfg);

class TimingModel {
 public:
  TimingModel(const arch::MachineConfig& cfg, MemSystem& mem);
  /// The config is held by reference and must outlive the model.
  TimingModel(arch::MachineConfig&&, MemSystem&) = delete;

  /// One executed instruction, with its precomputed dispatch cost.
  void onDecodedInst(const InstEvent& ev, const InstCost& cost) {
    step(ev, cost);
  }

  /// The machine this model times (decoded costs must come from it).
  [[nodiscard]] const arch::MachineConfig& machine() const { return cfg_; }

  /// Completion cycle of everything observed so far.
  [[nodiscard]] uint64_t cycles() const { return max_complete_; }

  struct Stats {
    uint64_t insts = 0;
    uint64_t branches = 0;
    uint64_t mispredicts = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Per-cause cycle attribution; attribution().total() == cycles() always.
  [[nodiscard]] const Attribution& attribution() const { return attr_; }

 private:
  /// The per-instruction scoreboard update.
  void step(const InstEvent& ev, const InstCost& cost);

  [[nodiscard]] uint64_t readyOf(ir::Reg r) const {
    if (!r.valid()) return 0;
    const auto& v = r.kind == ir::RegKind::Int ? int_ready_ : fp_ready_;
    const auto id = static_cast<size_t>(r.id);
    return id < v.size() ? v[id] : 0;
  }
  void setReady(ir::Reg r, uint64_t t) {
    auto& v = r.kind == ir::RegKind::Int ? int_ready_ : fp_ready_;
    const auto id = static_cast<size_t>(r.id);
    if (id >= v.size()) [[unlikely]]
      growReady(v, id);
    v[id] = t;
  }
  /// Grows a scoreboard to cover register `id` (kept out of the hot path).
  static void growReady(std::vector<uint64_t>& v, size_t id);
  uint64_t memOperandReady(const ir::Inst& inst) const;
  /// Earliest cycle a unit of this class is free; books the occupancy.
  uint64_t acquireUnit(ExecUnit u, uint64_t earliest, int occupancy);

  const arch::MachineConfig& cfg_;
  MemSystem& mem_;
  /// The cooperative deadline installed on the constructing thread (may be
  /// null); cached so the hot path pays one pointer test, not a TLS lookup.
  detail::EvalBudgetState* budget_;

  std::vector<uint64_t> int_ready_;
  std::vector<uint64_t> fp_ready_;
  uint64_t flags_ready_ = 0;

  uint64_t issue_cycle_ = 0;
  int issued_in_cycle_ = 0;
  /// Issue cycles below this watermark were inflated by a mispredict
  /// restart; the attribution charges them to Mispredict, not Issue.
  uint64_t mispredict_until_ = 0;
  std::vector<uint64_t> rob_retire_;  ///< circular, robSize entries
  size_t rob_pos_ = 0;
  uint64_t last_retire_ = 0;

  // Functional units: int x2, fpadd, fpmul, load, store.
  uint64_t unit_free_[6] = {0, 0, 0, 0, 0, 0};

  // 2-bit saturating counters indexed by a hash of the static instruction.
  static constexpr size_t kPredictorEntries = 1024;
  std::array<uint8_t, kPredictorEntries> predictor_;

  uint64_t max_complete_ = 0;
  Stats stats_;
  Attribution attr_;
};

}  // namespace ifko::sim
