// Control-flow graph queries over the layout-ordered block list.
#pragma once

#include <array>
#include <vector>

#include "ir/function.h"

namespace ifko::ir {

/// The CFG by layout position, built in one pass.  A block's successors
/// are the Jcc target (if any), then the Jmp target or fall-through block;
/// Ret blocks have none.  An edge to an unknown block id is dropped, and a
/// block reached twice from one block ([jcc L, jmp L]) lists it twice.
struct Cfg {
  struct Succs {
    std::array<int32_t, 2> pos{};
    int32_t n = 0;
    [[nodiscard]] const int32_t* begin() const { return pos.data(); }
    [[nodiscard]] const int32_t* end() const { return pos.data() + n; }
  };
  std::vector<Succs> succs;
  std::vector<std::vector<int32_t>> preds;
};

[[nodiscard]] Cfg buildCfg(const Function& fn);

/// Layout position of every block id (the first block with that id), -1 for
/// ids no block has; indexed by id, sized one past the largest id (IR text
/// bounds block ids at parse time, so this stays small).
[[nodiscard]] std::vector<int32_t> layoutPositions(const Function& fn);

}  // namespace ifko::ir
