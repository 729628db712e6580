// Golden snapshot of the cycle simulator: every kernels_hil kernel on both
// machines, in both timing contexts, for the FKO defaults and one
// UR=4 + prefetchnta + WNT candidate, at N=1024.  Each record holds the
// cycle count, dynamic instructions, the ten-cause attribution, and every
// MemSystem and TimingModel statistic, so any change to the timing model or
// the memory system that moves a single counter fails here.
//
// The snapshot is only ever rewritten on purpose, by running the disabled
// test: sim_golden_test --gtest_also_run_disabled_tests
// --gtest_filter=SimGolden.DISABLED_RewriteSnapshot
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "fko/harness.h"
#include "opt/params.h"
#include "search/evalpipeline.h"
#include "search/linesearch.h"
#include "search/orchestrator.h"
#include "sim/decode.h"
#include "sim/timer.h"

namespace ifko {
namespace {

constexpr int64_t kN = 1024;

std::string record(const std::string& kernel, const std::string& machine,
                   sim::TimeContext ctx, const std::string& cand,
                   const opt::TuningParams& params, const sim::TimeResult& r) {
  std::ostringstream os;
  os << "{\"kernel\":\"" << kernel << "\",\"machine\":\"" << machine
     << "\",\"context\":\"" << sim::contextName(ctx) << "\",\"cand\":\""
     << cand << "\",\"params\":\"" << params.str() << "\",\"cycles\":"
     << r.cycles << ",\"dyn_insts\":" << r.dynInsts << ",\"attr\":{";
  for (size_t c = 0; c < sim::kNumStallCauses; ++c)
    os << (c == 0 ? "" : ",") << "\""
       << sim::stallCauseName(static_cast<sim::StallCause>(c))
       << "\":" << r.attr.cycles[c];
  const sim::MemSystem::Stats& m = r.mem;
  os << "},\"mem\":{\"loads\":" << m.loads
     << ",\"load_miss_l1\":" << m.loadMissL1
     << ",\"load_miss_mem\":" << m.loadMissMem << ",\"stores\":" << m.stores
     << ",\"store_rfos\":" << m.storeRFOs << ",\"nt_stores\":" << m.ntStores
     << ",\"nt_flushes\":" << m.ntFlushes
     << ",\"pref_issued\":" << m.prefIssued
     << ",\"pref_dropped\":" << m.prefDropped
     << ",\"hw_prefetches\":" << m.hwPrefetches
     << ",\"writebacks\":" << m.writebacks << ",\"bus_bytes\":" << m.busBytes
     << ",\"load_hit_l1\":" << m.loadHitL1
     << ",\"load_hit_l2\":" << m.loadHitL2
     << ",\"store_hit_l1\":" << m.storeHitL1
     << ",\"store_hit_l2\":" << m.storeHitL2 << ",\"evict_l1\":" << m.evictL1
     << ",\"evict_l2\":" << m.evictL2 << ",\"pref_useful\":" << m.prefUseful
     << "},\"core\":{\"insts\":" << r.core.insts
     << ",\"branches\":" << r.core.branches
     << ",\"mispredicts\":" << r.core.mispredicts << "}}";
  return os.str();
}

/// The whole snapshot, in a fixed order.
std::vector<std::string> snapshot() {
  std::string err;
  const auto jobs = search::loadKernelDir(IFKO_KERNELS_HIL_DIR, &err);
  EXPECT_EQ(jobs.size(), 24u) << err;
  search::SearchConfig cfg;
  cfg.n = kN;
  std::vector<std::string> out;
  for (const auto& job : jobs) {
    for (const arch::MachineConfig& machine : {arch::p4e(), arch::opteron()}) {
      search::EvalPipeline p(job.hilSource, nullptr, machine, cfg);
      EXPECT_TRUE(p.lowered().ok) << job.name;
      const opt::TuningParams defaults =
          search::fkoDefaults(p.analysis(), machine);
      opt::TuningParams tuned = defaults;
      tuned.unroll = 4;
      tuned.nonTemporalWrites = true;
      for (const auto& a : p.analysis().arrays)
        if (a.prefetchable)
          tuned.prefetch[a.name] = {true, ir::PrefKind::NTA, 512};
      const std::pair<const char*, opt::TuningParams> cands[] = {
          {"defaults", defaults}, {"ur4_pfnta_wnt", tuned}};
      for (const auto& [candName, params] : cands) {
        auto cand = p.compile(params);
        EXPECT_TRUE(cand->compiled.ok)
            << job.name << " " << candName << ": " << cand->compiled.error;
        if (!cand->compiled.ok) continue;
        const sim::DecodedFunction dfn =
            sim::decodeFunction(cand->compiled.fn, machine);
        for (sim::TimeContext ctx :
             {sim::TimeContext::OutOfCache, sim::TimeContext::InL2}) {
          const sim::TimeResult timed = fko::timeCompiled(
              machine, dfn, kN, ctx, 42, p.maxStrideElems());
          std::string line = record(job.name, machine.name, ctx, candName,
                                    params, timed);
          EXPECT_EQ(timed.attr.total(), timed.cycles) << line;
          out.push_back(std::move(line));
        }
      }
    }
  }
  return out;
}

TEST(SimGolden, MatchesCommittedSnapshot) {
  std::ifstream in(IFKO_SIM_GOLDEN_PATH);
  ASSERT_TRUE(in.good()) << "missing " << IFKO_SIM_GOLDEN_PATH;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) golden.push_back(line);

  const std::vector<std::string> now = snapshot();
  ASSERT_EQ(now.size(), 24u * 2 * 2 * 2);
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

TEST(SimGolden, DISABLED_RewriteSnapshot) {
  const std::vector<std::string> now = snapshot();
  std::ofstream out(IFKO_SIM_GOLDEN_PATH, std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << IFKO_SIM_GOLDEN_PATH;
  for (const auto& line : now) out << line << '\n';
}

}  // namespace
}  // namespace ifko
