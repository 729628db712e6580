#include "ir/cfg.h"

#include <algorithm>

namespace ifko::ir {

namespace {

/// Calls f(id) for each successor id of the block at `pos`, in order.
template <typename F>
void forEachSuccessor(const Function& fn, size_t pos, F&& f) {
  const BasicBlock& bb = fn.blocks[pos];
  const bool hasNext = pos + 1 < fn.blocks.size();
  if (bb.insts.empty()) {
    if (hasNext) f(fn.blocks[pos + 1].id);
    return;
  }
  const Inst& last = bb.insts.back();
  if (last.op == Op::Ret) return;
  if (last.op == Op::Jmp) {
    // [jcc, jmp] ending: both targets are successors.
    if (bb.insts.size() >= 2 && bb.insts[bb.insts.size() - 2].op == Op::Jcc)
      f(bb.insts[bb.insts.size() - 2].label);
    f(last.label);
    return;
  }
  if (last.op == Op::Jcc) f(last.label);
  if (hasNext) f(fn.blocks[pos + 1].id);
}

}  // namespace

std::vector<int32_t> layoutPositions(const Function& fn) {
  int32_t maxId = -1;
  for (const auto& bb : fn.blocks) maxId = std::max(maxId, bb.id);
  std::vector<int32_t> pos(static_cast<size_t>(maxId + 1), -1);
  for (size_t i = fn.blocks.size(); i-- > 0;)
    if (fn.blocks[i].id >= 0) pos[fn.blocks[i].id] = static_cast<int32_t>(i);
  return pos;
}

Cfg buildCfg(const Function& fn) {
  const std::vector<int32_t> posOf = layoutPositions(fn);
  Cfg cfg;
  cfg.succs.resize(fn.blocks.size());
  cfg.preds.resize(fn.blocks.size());
  for (size_t i = 0; i < fn.blocks.size(); ++i) {
    Cfg::Succs& s = cfg.succs[i];
    forEachSuccessor(fn, i, [&](int32_t id) {
      if (id < 0 || static_cast<size_t>(id) >= posOf.size() || posOf[id] < 0)
        return;
      s.pos[s.n++] = posOf[id];
      cfg.preds[posOf[id]].push_back(static_cast<int32_t>(i));
    });
  }
  return cfg;
}

}  // namespace ifko::ir
