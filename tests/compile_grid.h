// The compile grid shared by the compile golden snapshot and the liveness
// differential test: every kernels_hil kernel on both machines, crossed
// with UR {1,4,16,64} x AE {1,4} x PF {none, nta on every prefetchable
// array} x WNT {off,on} x LC {off,on}.  Each kernel is lowered and
// analyzed once; the visitor sees the points in one fixed order.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "arch/machine.h"
#include "fko/compiler.h"
#include "opt/params.h"
#include "search/orchestrator.h"

namespace ifko::testing {

/// Calls visit(kernel, machine, params, lowered) for every grid point.
template <typename Visit>
void forEachCompileGridPoint(Visit&& visit) {
  std::string err;
  const auto jobs = search::loadKernelDir(IFKO_KERNELS_HIL_DIR, &err);
  EXPECT_EQ(jobs.size(), 24u) << err;
  for (const auto& job : jobs) {
    const fko::LoweredKernel lowered = fko::lowerKernel(job.hilSource);
    EXPECT_TRUE(lowered.ok) << job.name << ": " << lowered.error;
    if (!lowered.ok) continue;
    for (const arch::MachineConfig& machine : {arch::p4e(), arch::opteron()}) {
      const fko::AnalysisReport report =
          fko::analyzeKernel(job.hilSource, machine);
      for (int ur : {1, 4, 16, 64})
        for (int ae : {1, 4})
          for (bool pf : {false, true})
            for (bool wnt : {false, true})
              for (bool lc : {false, true}) {
                opt::TuningParams params;
                params.unroll = ur;
                params.accumExpand = ae;
                params.nonTemporalWrites = wnt;
                params.optimizeLoopControl = lc;
                if (pf)
                  for (const auto& a : report.arrays)
                    if (a.prefetchable)
                      params.prefetch[a.name] = {true, ir::PrefKind::NTA,
                                                 2 * machine.lineBytes()};
                visit(job.name, machine, params, lowered.fn);
              }
    }
  }
}

/// The unoptimized reference lowering fko::buildDiffReference compiles.
[[nodiscard]] inline fko::CompileOptions referenceLoweringOptions() {
  fko::CompileOptions plain;
  plain.runRepeatable = false;
  plain.runRegalloc = false;
  plain.tuning.simdVectorize = false;
  plain.tuning.unroll = 1;
  plain.tuning.optimizeLoopControl = false;
  return plain;
}

}  // namespace ifko::testing
