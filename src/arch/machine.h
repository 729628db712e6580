// Machine configurations for the timing simulator.
//
// Two presets model the paper's evaluation platforms.  Parameter values are
// approximations of the published microarchitectural numbers; what the
// reproduction depends on is the *relationships* the paper leans on:
//
//  * P4E: high clock relative to memory (deep miss penalty, low bus
//    bytes/cycle), long FP latencies, expensive mispredicts, NT stores
//    cheap even for cached lines (write-combining through the L1),
//    no 3DNow! prefetchw.
//  * Opteron: lower clock with an integrated memory controller (shallower
//    miss penalty, more bus bytes/cycle => less bus-bound), short FP
//    latencies, NT stores costly unless the destination was never cached
//    (write-only streams), prefetchw available.
//
// Both are 3-wide out-of-order x86 cores whose 128-bit SSE operations split
// into two 64-bit halves (vector ops occupy their unit for 2 cycles).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/inst.h"

namespace ifko::arch {

struct CacheLevelConfig {
  int sizeBytes = 0;
  int lineBytes = 64;
  int assoc = 8;
  int latency = 3;  ///< load-to-use cycles on hit at this level
};

struct MachineConfig {
  std::string name;
  double ghz = 1.0;  ///< used only to convert cycles to MFLOPS

  std::vector<CacheLevelConfig> caches;  ///< L1 first
  int memLatency = 300;        ///< cycles from bus grant to data
  double busBytesPerCycle = 2; ///< sustained memory bandwidth
  int busTurnaround = 10;      ///< cycles lost switching read<->write streams
  int maxOutstandingMisses = 8;  ///< MSHRs; also gates prefetch issue
  /// Hardware stride prefetcher: lines fetched ahead once a sequential miss
  /// stream is detected (0 disables).  Both evaluation machines have one,
  /// which is why software prefetch buys percent-level rather than
  /// multiple-x improvements (paper Fig. 7: PF DST averages +26%).
  int hwPrefetchDepth = 2;
  int hwPrefetchTrainStreak = 2;  ///< sequential misses before it engages
  /// A prefetch is silently dropped when the bus backlog exceeds this many
  /// cycles (the paper: "many architectures discard prefetches when they are
  /// issued while the bus is busy").
  int prefetchDropBacklog = 48;
  int storeBufferEntries = 16;

  int issueWidth = 3;
  int robSize = 96;
  int mispredictPenalty = 20;

  // Instruction latencies (cycles).
  int latInt = 1;
  int latFAdd = 4;
  int latFMul = 5;
  int latFDiv = 30;
  int latFMisc = 2;   ///< abs/moves/bitwise/broadcast/reduction step
  int latLoadFwd = 1; ///< extra cycles a vector op spends per 64-bit half
  int vecOccupancy = 2;  ///< cycles a 128-bit op occupies its unit

  bool hasPrefW = false;
  /// True (P4E): an NT store that hits a cached line is still cheap.
  /// False (Opteron): it forces a flush/invalidate costing ntFlushPenalty.
  bool ntStoreCheapWhenCached = true;
  int ntFlushPenalty = 40;
  /// Write-combining buffers for non-temporal stores (P4: 6, K8: 4).  With
  /// fewer buffers than concurrently-written NT streams, partial lines
  /// flush at full line cost.
  int wcBuffers = 4;

  [[nodiscard]] int lineBytes() const { return caches.front().lineBytes; }
  /// Available prefetch instruction kinds on this machine.
  [[nodiscard]] std::vector<ir::PrefKind> prefKinds() const;
};

[[nodiscard]] MachineConfig p4e();
[[nodiscard]] MachineConfig opteron();
/// The flag spelling (--arch=, the serve protocol's arch=): "p4e" or
/// "opteron"; nullopt for anything else.
[[nodiscard]] std::optional<MachineConfig> parseArchFlag(std::string_view flag);
[[nodiscard]] const std::vector<MachineConfig>& allMachines();

}  // namespace ifko::arch
