#include "arch/machine.h"

namespace ifko::arch {

std::vector<ir::PrefKind> MachineConfig::prefKinds() const {
  std::vector<ir::PrefKind> kinds = {ir::PrefKind::NTA, ir::PrefKind::T0,
                                     ir::PrefKind::T1};
  if (hasPrefW) kinds.push_back(ir::PrefKind::W);
  return kinds;
}

MachineConfig p4e() {
  MachineConfig m;
  m.name = "P4E";
  m.ghz = 2.8;
  // Prescott: 16KB 8-way L1D (4-cycle), 1MB 8-way L2 (~28-cycle).
  m.caches = {{.sizeBytes = 16 * 1024, .lineBytes = 64, .assoc = 8, .latency = 4},
              {.sizeBytes = 1024 * 1024, .lineBytes = 64, .assoc = 8, .latency = 28}};
  // ~140ns to DRAM at 2.8GHz; 6.4GB/s FSB = 2.3 B/cycle.
  m.memLatency = 392;
  m.busBytesPerCycle = 2.3;
  m.busTurnaround = 24;
  m.maxOutstandingMisses = 8;
  m.hwPrefetchDepth = 8;
  m.prefetchDropBacklog = 280;  // ~10 line transfers
  m.storeBufferEntries = 24;
  m.issueWidth = 3;
  m.robSize = 126;
  m.mispredictPenalty = 30;  // 31-stage pipeline
  m.latInt = 1;
  m.latFAdd = 5;
  m.latFMul = 7;
  m.latFDiv = 38;
  m.latFMisc = 2;
  m.vecOccupancy = 2;
  m.hasPrefW = false;
  m.ntStoreCheapWhenCached = true;
  m.ntFlushPenalty = 0;
  m.wcBuffers = 6;
  return m;
}

MachineConfig opteron() {
  MachineConfig m;
  m.name = "Opteron";
  m.ghz = 1.6;
  // K8: 64KB 2-way L1D (3-cycle), 1MB 16-way L2 (~12-cycle).
  m.caches = {{.sizeBytes = 64 * 1024, .lineBytes = 64, .assoc = 2, .latency = 3},
              {.sizeBytes = 1024 * 1024, .lineBytes = 64, .assoc = 16, .latency = 12}};
  // Integrated controller: ~80ns at 1.6GHz; ~5.3GB/s = 3.3 B/cycle.
  m.memLatency = 128;
  m.busBytesPerCycle = 3.3;
  m.busTurnaround = 10;
  m.maxOutstandingMisses = 8;
  m.hwPrefetchDepth = 6;
  m.prefetchDropBacklog = 200;
  m.storeBufferEntries = 20;
  m.issueWidth = 3;
  m.robSize = 72;
  m.mispredictPenalty = 12;
  m.latInt = 1;
  m.latFAdd = 4;
  m.latFMul = 4;
  m.latFDiv = 20;
  m.latFMisc = 2;
  m.vecOccupancy = 2;
  m.hasPrefW = true;
  m.ntStoreCheapWhenCached = false;
  m.ntFlushPenalty = 48;
  m.wcBuffers = 4;
  return m;
}

std::optional<MachineConfig> parseArchFlag(std::string_view flag) {
  if (flag == "p4e") return p4e();
  if (flag == "opteron") return opteron();
  return std::nullopt;
}

const std::vector<MachineConfig>& allMachines() {
  static const std::vector<MachineConfig> kMachines = {p4e(), opteron()};
  return kMachines;
}

}  // namespace ifko::arch
