// Differential test of the dense bitset liveness: on every function of the
// compile grid (tests/compile_grid.h), after the fundamental transforms and
// again after the repeatable block, each block's live-in and live-out sets
// must equal those of the set-based reference fixed point.
#include <gtest/gtest.h>

#include <string>

#include "compile_grid.h"
#include "liveness_reference.h"
#include "opt/loop_xform.h"
#include "opt/repeatable.h"

namespace ifko {
namespace {

TEST(LivenessDiff, MatchesSetReferenceOnCompileGrid) {
  int points = 0, mismatches = 0;
  testing::forEachCompileGridPoint(
      [&](const std::string& kernel, const arch::MachineConfig& machine,
          const opt::TuningParams& params, const ir::Function& lowered) {
        ++points;
        if (mismatches >= 3) return;  // one listing per failure is plenty
        const std::string where = kernel + " " + machine.name + " " + params.str();
        std::string err;
        auto fn = opt::applyFundamentalTransforms(lowered, params, machine, &err);
        ASSERT_TRUE(fn.has_value()) << where << ": " << err;
        if (!testing::livenessMatchesReference(*fn, where + " (fundamental)"))
          ++mismatches;
        (void)opt::runRepeatableReport(*fn);
        if (!testing::livenessMatchesReference(*fn, where + " (repeatable)"))
          ++mismatches;
      });
  EXPECT_EQ(points, 24 * 2 * 4 * 2 * 2 * 2 * 2);
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace ifko
