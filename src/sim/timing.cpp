#include "sim/timing.h"

#include <algorithm>

namespace ifko::sim {

using ir::Op;
using ir::Reg;
using ir::RegKind;

std::string_view stallCauseName(StallCause c) {
  switch (c) {
    case StallCause::Issue: return "issue";
    case StallCause::FpDep: return "fp_dep";
    case StallCause::IntDep: return "int_dep";
    case StallCause::Rob: return "rob";
    case StallCause::Mispredict: return "mispredict";
    case StallCause::Unit: return "unit";
    case StallCause::MemL1: return "mem_l1";
    case StallCause::MemL2: return "mem_l2";
    case StallCause::MemMain: return "mem_main";
    case StallCause::Store: return "store";
  }
  return "?";
}

namespace {

/// The memory level that served the last access, as a stall cause.
StallCause serviceCause(MemSystem::Service s) {
  switch (s) {
    case MemSystem::Service::L1: return StallCause::MemL1;
    case MemSystem::Service::L2: return StallCause::MemL2;
    case MemSystem::Service::Mem: return StallCause::MemMain;
    case MemSystem::Service::None: break;
  }
  return StallCause::MemL1;
}

/// Store commits that stay in the L1/store buffer are cheap bookkeeping
/// (Store); ones that had to fetch ownership from further out are memory.
StallCause storeServiceCause(MemSystem::Service s) {
  switch (s) {
    case MemSystem::Service::L2: return StallCause::MemL2;
    case MemSystem::Service::Mem: return StallCause::MemMain;
    default: return StallCause::Store;
  }
}

/// Unit class, result latency and occupancy of `op`; `vocc` is the
/// occupancy of a full-width vector op on this machine.
InstCost unitCost(Op op, int vocc, const arch::MachineConfig& cfg) {
  switch (op) {
    case Op::IMovI: case Op::IMov: case Op::IAdd: case Op::ISub:
    case Op::IAddI: case Op::IShlI: case Op::IAddCC: case Op::ICmp:
    case Op::ICmpI:
      return {ExecUnit::Int, cfg.latInt, 1};
    case Op::IMul:
      return {ExecUnit::Int, 3, 1};
    case Op::Jmp: case Op::Jcc: case Op::Ret:
      return {ExecUnit::Int, 1, 1};
    case Op::ILd: case Op::FLd: case Op::VLd:
      return {ExecUnit::Load, 0, vocc};  // latency comes from the memory system
    case Op::ISt: case Op::FSt: case Op::FStNT: case Op::VSt: case Op::VStNT:
      return {ExecUnit::Store, 0, vocc};
    case Op::FLdI: case Op::FMov: case Op::FAbs: case Op::FNeg:
      return {ExecUnit::FpAny, cfg.latFMisc, 1};
    case Op::VMov: case Op::VAbs: case Op::VBcast: case Op::VZero:
    case Op::VCmpGT: case Op::VAnd: case Op::VAndN: case Op::VOr:
    case Op::VSel: case Op::VMovMsk: case Op::VIota: case Op::VExt:
      return {ExecUnit::FpAny, cfg.latFMisc, vocc};
    case Op::FToI:
      return {ExecUnit::FpAdd, cfg.latFAdd, 1};
    case Op::FAdd: case Op::FSub: case Op::FMax: case Op::FCmp:
      return {ExecUnit::FpAdd, cfg.latFAdd, 1};
    case Op::VAdd: case Op::VSub: case Op::VMax:
      return {ExecUnit::FpAdd, cfg.latFAdd, vocc};
    case Op::VHAdd: case Op::VHMax:
      return {ExecUnit::FpAdd, cfg.latFAdd + cfg.latFMisc, vocc};
    case Op::FMul:
      return {ExecUnit::FpMul, cfg.latFMul, 1};
    case Op::VMul:
      return {ExecUnit::FpMul, cfg.latFMul, vocc};
    case Op::FDiv:
      return {ExecUnit::FpMul, cfg.latFDiv, cfg.latFDiv};  // unpipelined
    case Op::FAddM: case Op::VAddM:
      return {ExecUnit::FpAdd, cfg.latFAdd, vocc};
    case Op::FMulM: case Op::VMulM:
      return {ExecUnit::FpMul, cfg.latFMul, vocc};
    case Op::Pref: case Op::Touch:
      return {ExecUnit::Load, 0, 1};
    case Op::Nop:
      return {ExecUnit::None, 0, 0};
  }
  return {ExecUnit::None, 1, 1};
}

}  // namespace

TimingModel::TimingModel(const arch::MachineConfig& cfg, MemSystem& mem)
    : cfg_(cfg), mem_(mem), budget_(detail::currentEvalBudget()) {
  rob_retire_.assign(static_cast<size_t>(cfg.robSize), 0);
  predictor_.fill(1);  // weakly not-taken
}

void TimingModel::growReady(std::vector<uint64_t>& v, size_t id) {
  v.resize(id + 64, 0);
}

inline uint64_t TimingModel::memOperandReady(const ir::Inst& inst) const {
  uint64_t t = readyOf(inst.mem.base);
  if (inst.mem.hasIndex()) t = std::max(t, readyOf(inst.mem.index));
  return t;
}

inline uint64_t TimingModel::acquireUnit(ExecUnit u, uint64_t earliest,
                                         int occupancy) {
  if (u == ExecUnit::None) return earliest;
  if (u == ExecUnit::Int) {
    // Two integer ALUs: pick whichever frees first.
    size_t best = unit_free_[0] <= unit_free_[1] ? 0 : 1;
    uint64_t start = std::max(earliest, unit_free_[best]);
    unit_free_[best] = start + static_cast<uint64_t>(occupancy);
    return start;
  }
  if (u == ExecUnit::FpAny) {
    // Logical/shuffle/blend micro-ops issue to whichever FP pipe is free
    // (both evaluation machines had two FP pipes accepting them).
    size_t best = unit_free_[2] <= unit_free_[3] ? 2 : 3;
    uint64_t start = std::max(earliest, unit_free_[best]);
    unit_free_[best] = start + static_cast<uint64_t>(occupancy);
    return start;
  }
  size_t idx = u == ExecUnit::FpAdd ? 2
               : u == ExecUnit::FpMul ? 3
               : u == ExecUnit::Load  ? 4
                                        : 5;
  uint64_t start = std::max(earliest, unit_free_[idx]);
  unit_free_[idx] = start + static_cast<uint64_t>(occupancy);
  return start;
}

InstCost instCost(const ir::Inst& inst, const arch::MachineConfig& cfg) {
  const ir::OpInfo& info = ir::opInfo(inst.op);
  InstCost cost = unitCost(inst.op, info.isVector ? cfg.vecOccupancy : 1, cfg);
  cost.numSrcs = info.numSrcs;
  cost.hasDst = info.hasDst;
  cost.isStore = info.writesMem;
  cost.touchesMem = ir::touchesMem(inst.op);
  cost.readsFlags = info.readsFlags;
  cost.setsFlags = info.setsFlags;
  return cost;
}

void TimingModel::step(const InstEvent& ev, const InstCost& cost) {
  const ir::Inst& inst = *ev.inst;
  ++stats_.insts;

  // ---- in-order issue, issueWidth per cycle, bounded by the ROB ----------
  uint64_t robGate = rob_retire_[rob_pos_];  // retire time robSize insts ago
  uint64_t issueAt = std::max(issue_cycle_, robGate);
  if (issueAt > issue_cycle_) {
    issue_cycle_ = issueAt;
    issued_in_cycle_ = 0;
  }
  if (++issued_in_cycle_ >= cfg_.issueWidth) {
    ++issue_cycle_;
    issued_in_cycle_ = 0;
  }

  // ---- operand readiness ---------------------------------------------------
  // Stores issue their memory request at address-generation time; the data
  // only gates the final commit (real OOO cores start the RFO as soon as
  // the address is known).
  const bool isStore = cost.isStore;
  uint64_t deps = issueAt;
  // The attribution charges dependency waits to the register class of the
  // operand that gates dispatch (FP chain vs integer/address/flags).
  StallCause depCause = StallCause::IntDep;
  auto raiseDep = [&](uint64_t t, StallCause c) {
    if (t > deps) {
      deps = t;
      depCause = c;
    }
  };
  auto regCause = [](Reg r) {
    return r.kind == RegKind::Fp ? StallCause::FpDep : StallCause::IntDep;
  };
  if (!isStore) {
    if (cost.numSrcs >= 1) raiseDep(readyOf(inst.src1), regCause(inst.src1));
    if (cost.numSrcs >= 2) raiseDep(readyOf(inst.src2), regCause(inst.src2));
    if (cost.numSrcs >= 3) raiseDep(readyOf(inst.src3), regCause(inst.src3));
  }
  if (inst.op == Op::Ret && inst.src1.valid())
    raiseDep(readyOf(inst.src1), regCause(inst.src1));
  if (cost.touchesMem) raiseDep(memOperandReady(inst), StallCause::IntDep);
  if (cost.readsFlags) raiseDep(flags_ready_, StallCause::IntDep);
  uint64_t storeDataReady = isStore ? readyOf(inst.src1) : 0;

  uint64_t execStart = acquireUnit(cost.unit, deps, cost.occupancy);
  uint64_t complete = execStart + static_cast<uint64_t>(cost.latency);

  // Attribution milestones for the [execStart, complete) span: an optional
  // op-specific mid boundary, then a tail cause for the final segment
  // (exposed latency of the unit class unless the op says otherwise).
  uint64_t midAt = 0;
  StallCause midCause = StallCause::Issue;
  StallCause tailCause = StallCause::Issue;
  switch (cost.unit) {
    case ExecUnit::FpAdd: case ExecUnit::FpMul: case ExecUnit::FpAny:
      tailCause = StallCause::FpDep;
      break;
    case ExecUnit::Int:
      tailCause = StallCause::IntDep;
      break;
    default:
      break;
  }

  // ---- memory and control specifics ---------------------------------------
  switch (inst.op) {
    case Op::ILd: case Op::FLd: case Op::VLd:
      complete = mem_.load(ev.addr, ev.accessBytes, execStart);
      tailCause = serviceCause(mem_.lastService());
      break;
    case Op::Touch:
      // The fill is initiated (and nothing waits on the value).
      mem_.load(ev.addr, ev.accessBytes, execStart);
      complete = execStart + 1;
      tailCause = StallCause::Issue;
      break;
    case Op::FAddM: case Op::FMulM: case Op::VAddM: case Op::VMulM: {
      // Fused load + arithmetic: the load micro-op goes first.
      uint64_t loadStart = acquireUnit(ExecUnit::Load, deps, 1);
      uint64_t dataReady = mem_.load(ev.addr, ev.accessBytes, loadStart);
      uint64_t start = std::max(execStart, dataReady);
      complete = start + static_cast<uint64_t>(cost.latency);
      // Waiting for the operand is memory; the arithmetic is FP latency.
      midAt = start;
      midCause = serviceCause(mem_.lastService());
      tailCause = StallCause::FpDep;
      break;
    }
    case Op::ISt: case Op::FSt: case Op::VSt: {
      uint64_t commit = mem_.store(ev.addr, ev.accessBytes, execStart);
      complete = std::max(commit, storeDataReady);
      midAt = commit;
      midCause = storeServiceCause(mem_.lastService());
      // Past the commit point the store only waits for its data operand.
      tailCause = regCause(inst.src1);
      break;
    }
    case Op::FStNT: case Op::VStNT:
      // NT stores drain through the write-combining buffer once the data
      // arrives.
      complete = std::max(mem_.storeNT(ev.addr, ev.accessBytes,
                                       std::max(execStart, storeDataReady)),
                          storeDataReady);
      midAt = std::max(execStart, storeDataReady);
      midCause = regCause(inst.src1);
      tailCause = StallCause::Store;
      break;
    case Op::Pref:
      mem_.prefetch(inst.pref, ev.addr, execStart);
      complete = execStart + 1;
      tailCause = StallCause::Issue;
      break;
    case Op::Jcc: {
      ++stats_.branches;
      uint8_t& ctr = predictor_[ev.pcId % kPredictorEntries];
      bool predictedTaken = ctr >= 2;
      if (predictedTaken != ev.taken) {
        ++stats_.mispredicts;
        // The front end restarts after the branch resolves.
        uint64_t resolve = std::max(deps, execStart);
        issue_cycle_ =
            std::max(issue_cycle_,
                     resolve + static_cast<uint64_t>(cfg_.mispredictPenalty));
        issued_in_cycle_ = 0;
        // Issue cycles inflated by this restart are charged to Mispredict
        // (see the attribution segment below) on the refilled instructions.
        mispredict_until_ = std::max(mispredict_until_, issue_cycle_);
      }
      if (ev.taken && ctr < 3) ++ctr;
      if (!ev.taken && ctr > 0) --ctr;
      break;
    }
    default:
      break;
  }

  if (cost.hasDst) setReady(inst.dst, complete);
  if (cost.setsFlags) flags_ready_ = complete;

  // ---- cycle attribution ---------------------------------------------------
  // Partition this instruction's advance of the completion front
  // [last_retire_, complete) along its ordered critical-path milestones.
  // Boundaries are clamped to `complete` and the cursor only moves forward,
  // so the per-instruction charges sum to exactly the front's advance:
  // the accounting identity  attribution().total() == cycles().  Most
  // instructions complete behind the front and charge nothing; a boundary
  // at or below the cursor (an absent mid boundary is 0) charges nothing.
  if (complete > last_retire_) {
    uint64_t lo = last_retire_;
    auto seg = [&](uint64_t boundary, StallCause c) {
      const uint64_t hi = std::min(boundary, complete);
      if (hi > lo) {
        attr_.cycles[static_cast<size_t>(c)] += hi - lo;
        lo = hi;
      }
    };
    seg(std::min(issueAt, mispredict_until_), StallCause::Mispredict);
    seg(std::min(issueAt, robGate), StallCause::Rob);
    seg(issueAt, StallCause::Issue);
    seg(deps, depCause);
    seg(execStart, StallCause::Unit);
    seg(midAt, midCause);
    seg(complete, tailCause);
  }

  // ---- in-order retire -----------------------------------------------------
  uint64_t retire = std::max(complete, last_retire_);
  last_retire_ = retire;
  rob_retire_[rob_pos_] = retire;
  if (++rob_pos_ == rob_retire_.size()) rob_pos_ = 0;

  max_complete_ = std::max(max_complete_, retire);

  // Cooperative deadline (sim/budget.h): the clock only moves forward, so a
  // periodic check bounds how far a runaway candidate can run past its cap.
  if (budget_ != nullptr && budget_->cycleCap != 0 &&
      (stats_.insts & 0x3FF) == 0 && max_complete_ > budget_->cycleCap)
    throw TimeoutError("evaluation exceeded its simulated cycle budget");
}

}  // namespace ifko::sim
