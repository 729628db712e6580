// Golden snapshot of the FKO compile pipeline: every point of the compile
// grid (tests/compile_grid.h), then the unoptimized reference lowering of
// every kernel that the differential tester compiles.  Each record holds
// the hash of the printed IR, ok/error, the spill slots, the repeatable
// block's iteration count and convergence, and every pass delta as
// [name, instsBefore, instsAfter, iterations, changed], so a
// compiler change that moves a single instruction, vreg number or block id
// fails here.
//
// The snapshot is only ever rewritten on purpose, by running the disabled
// test: compile_golden_test --gtest_also_run_disabled_tests
// --gtest_filter=CompileGolden.DISABLED_RewriteSnapshot
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "compile_grid.h"
#include "ir/printer.h"
#include "search/orchestrator.h"
#include "support/hash.h"
#include "support/json.h"

namespace ifko {
namespace {

std::string record(const std::string& kernel, const std::string& machine,
                   const std::string& params, const fko::CompileResult& r) {
  std::ostringstream os;
  os << "{\"kernel\":\"" << kernel << "\",\"machine\":\"" << machine
     << "\",\"params\":\"" << params << "\",\"ok\":" << (r.ok ? 1 : 0)
     << ",\"error\":\"" << jsonEscape(r.error) << "\",\"ir\":\""
     << hashHex(ir::print(r.fn)) << "\",\"spill_slots\":" << r.spillSlots
     << ",\"rep_iters\":" << r.repeatableIters
     << ",\"rep_converged\":" << (r.repeatableConverged ? 1 : 0)
     << ",\"passes\":[";
  for (size_t i = 0; i < r.passes.size(); ++i) {
    const opt::PassDelta& d = r.passes[i];
    os << (i == 0 ? "" : ",") << "[\"" << d.name << "\"," << d.instsBefore
       << "," << d.instsAfter << "," << d.iterations << ","
       << (d.changed ? 1 : 0) << "]";
  }
  os << "]}";
  return os.str();
}

/// The whole snapshot, in a fixed order.
std::vector<std::string> snapshot() {
  std::vector<std::string> out;
  testing::forEachCompileGridPoint(
      [&](const std::string& kernel, const arch::MachineConfig& machine,
          const opt::TuningParams& params, const ir::Function& lowered) {
        fko::CompileOptions opts;
        opts.tuning = params;
        out.push_back(record(kernel, machine.name, params.str(),
                             fko::compileKernel(lowered, opts, machine)));
      });
  std::string err;
  for (const auto& job : search::loadKernelDir(IFKO_KERNELS_HIL_DIR, &err)) {
    const fko::CompileOptions plain = testing::referenceLoweringOptions();
    out.push_back(record(job.name, "reference", plain.tuning.str(),
                         fko::compileKernel(job.hilSource, plain, arch::p4e())));
  }
  return out;
}

TEST(CompileGolden, MatchesCommittedSnapshot) {
  std::ifstream in(IFKO_COMPILE_GOLDEN_PATH);
  ASSERT_TRUE(in.good()) << "missing " << IFKO_COMPILE_GOLDEN_PATH;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) golden.push_back(line);

  const std::vector<std::string> now = snapshot();
  ASSERT_EQ(now.size(), 24u * 2 * 4 * 2 * 2 * 2 * 2 + 24);
  ASSERT_EQ(now.size(), golden.size());
  int mismatches = 0;
  for (size_t i = 0; i < now.size(); ++i) {
    if (now[i] == golden[i]) continue;
    if (++mismatches <= 5)
      ADD_FAILURE() << "record " << i << " differs\n  golden: " << golden[i]
                    << "\n  now:    " << now[i];
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(CompileGolden, DISABLED_RewriteSnapshot) {
  const std::vector<std::string> now = snapshot();
  std::ofstream out(IFKO_COMPILE_GOLDEN_PATH, std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << IFKO_COMPILE_GOLDEN_PATH;
  for (const auto& line : now) out << line << '\n';
}

}  // namespace
}  // namespace ifko
