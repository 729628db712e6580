// A set-based liveness fixed point, kept only as the test oracle for the
// dense bitset opt::computeLiveness: per block std::sets of (kind, id),
// successor ids read off each block's branches here (not through
// ir::buildCfg, which the dense liveness uses), iterated until nothing
// changes.
#pragma once

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ir/printer.h"
#include "opt/liveness.h"

namespace ifko::testing {

using RegPairSet = std::set<std::pair<int, int32_t>>;  // (kind, id)

inline std::pair<int, int32_t> regPair(ir::Reg r) {
  return {static_cast<int>(r.kind), r.id};
}

/// Successor ids of the block at layout position `b`: every branch target
/// in the block, then the next block when the block has no jmp/ret.
inline std::vector<int32_t> successorIds(const ir::Function& fn, size_t b) {
  std::vector<int32_t> out;
  const ir::BasicBlock& bb = fn.blocks[b];
  for (const auto& in : bb.insts)
    if (ir::opInfo(in.op).isBranch) out.push_back(in.label);
  if (bb.fallsThrough() && b + 1 < fn.blocks.size())
    out.push_back(fn.blocks[b + 1].id);
  return out;
}

struct SetLiveness {
  std::vector<RegPairSet> liveIn, liveOut;  ///< by layout position
};

inline SetLiveness setLiveness(const ir::Function& fn) {
  const size_t n = fn.blocks.size();
  std::vector<RegPairSet> use(n), def(n);
  for (size_t b = 0; b < n; ++b)
    for (const auto& in : fn.blocks[b].insts) {
      for (ir::Reg r : opt::usedRegs(in))
        if (!def[b].count(regPair(r))) use[b].insert(regPair(r));
      ir::Reg w = opt::definedReg(in);
      if (w.valid()) def[b].insert(regPair(w));
    }
  SetLiveness lv{std::vector<RegPairSet>(n), std::vector<RegPairSet>(n)};
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t b = n; b-- > 0;) {
      RegPairSet out;
      for (int32_t s : successorIds(fn, b)) {
        const size_t pos = fn.layoutIndex(s);
        if (pos == static_cast<size_t>(-1)) continue;
        out.insert(lv.liveIn[pos].begin(), lv.liveIn[pos].end());
      }
      RegPairSet in = use[b];
      for (const auto& k : out)
        if (!def[b].count(k)) in.insert(k);
      if (out != lv.liveOut[b] || in != lv.liveIn[b]) {
        lv.liveOut[b] = std::move(out);
        lv.liveIn[b] = std::move(in);
        changed = true;
      }
    }
  }
  return lv;
}

inline RegPairSet toPairs(const opt::Liveness& lv, const ir::RegSet& s) {
  RegPairSet out;
  s.forEach([&](int32_t k) { out.insert(regPair(lv.regs.reg(k))); });
  return out;
}

/// Checks the dense liveness of `fn` block by block against the set-based
/// reference; `where` names the function in a failure.  Returns true when
/// every block agrees.
inline bool livenessMatchesReference(const ir::Function& fn,
                                     const std::string& where) {
  const opt::Liveness dense = opt::computeLiveness(fn);
  const SetLiveness ref = setLiveness(fn);
  EXPECT_EQ(dense.liveIn.size(), fn.blocks.size()) << where;
  EXPECT_EQ(dense.liveOut.size(), fn.blocks.size()) << where;
  if (dense.liveIn.size() != fn.blocks.size() ||
      dense.liveOut.size() != fn.blocks.size())
    return false;
  for (size_t b = 0; b < fn.blocks.size(); ++b) {
    if (toPairs(dense, dense.liveIn[b]) == ref.liveIn[b] &&
        toPairs(dense, dense.liveOut[b]) == ref.liveOut[b])
      continue;
    ADD_FAILURE() << where << ": liveness differs at bb" << fn.blocks[b].id
                  << "\n"
                  << ir::print(fn);
    return false;
  }
  return true;
}

}  // namespace ifko::testing
