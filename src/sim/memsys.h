// Timing model of the memory hierarchy: set-associative caches, a memory
// bus with occupancy and read/write turnaround, MSHRs, write-combining
// non-temporal stores, and the SSE/3DNow! prefetch family.
//
// Every mechanism the paper's analysis leans on is modeled explicitly:
//  * write-allocate stores do read-for-ownership on miss (why WNT wins on
//    copy: it removes one of the three bus transfers per line);
//  * prefetches are dropped when the bus backlog is deep or MSHRs are full
//    (why prefetch stops helping for bus-bound kernels like swap/axpy);
//  * NT stores to lines that are currently cached cost a flush on machines
//    with ntStoreCheapWhenCached=false (why blind WNT collapses on
//    Opteron's swap/axpy while copy's write-only Y is fine);
//  * reads and writes interleaving on the bus pay a turnaround penalty
//    (what AMD's block-fetch technique amortizes).
//
// All methods take the current cycle and return data-ready/commit cycles;
// the decoded engine (sim/decode.h) supplies addresses, so timing and
// semantics stay decoupled.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "arch/machine.h"
#include "ir/inst.h"

namespace ifko::sim {

/// The store buffer's outstanding commits.  Stores commit asynchronously
/// until `entries` are outstanding; from then on the earliest commit,
/// counting the new one, must drain first.  Nothing else ever leaves the
/// buffer and only its earliest commit is ever read, so a binary min-heap
/// holds it.
class StoreBuffer {
 public:
  explicit StoreBuffer(int entries) : entries_(static_cast<size_t>(entries)) {}

  /// Queues a store issued at `now` whose commit is ready at `ready`;
  /// returns the cycle the store leaves the issue stage.
  uint64_t reserve(uint64_t ready, uint64_t now);

 private:
  size_t entries_;
  std::vector<uint64_t> heap_;  ///< min-heap of commit cycles
};

class MemSystem {
 public:
  /// Throws std::invalid_argument unless every cache level has a
  /// power-of-two line size and set count (sets are indexed by shift and
  /// mask).
  explicit MemSystem(const arch::MachineConfig& cfg);
  /// The config is held by reference and must outlive the MemSystem.
  explicit MemSystem(arch::MachineConfig&&) = delete;

  /// The level that serviced the most recent load()/store() call.  Read by
  /// the timing model immediately after each access to attribute the stall
  /// to a memory level (safe: one MemSystem is owned by one evaluation).
  enum class Service : uint8_t { None, L1, L2, Mem };
  [[nodiscard]] Service lastService() const { return last_service_; }

  /// Data-ready cycle for a load of `bytes` at `addr` executed at `now`.
  uint64_t load(uint64_t addr, uint32_t bytes, uint64_t now);
  /// Commit cycle for a write-allocate store (store buffer permitting).
  uint64_t store(uint64_t addr, uint32_t bytes, uint64_t now);
  /// Commit cycle for a non-temporal (write-combining) store.
  uint64_t storeNT(uint64_t addr, uint32_t bytes, uint64_t now);
  /// Issues (or silently drops) a prefetch of the line containing `addr`.
  void prefetch(ir::PrefKind kind, uint64_t addr, uint64_t now);

  /// Installs [addr, addr+bytes) into the caches as if previously accessed
  /// (used by the in-L2 timing context).  No stats, no bus traffic.
  void warm(uint64_t addr, uint64_t bytes);

  struct Stats {
    uint64_t loads = 0;
    uint64_t loadMissL1 = 0;
    uint64_t loadMissMem = 0;  ///< misses that went to memory
    uint64_t stores = 0;
    uint64_t storeRFOs = 0;
    uint64_t ntStores = 0;
    uint64_t ntFlushes = 0;  ///< NT stores that hit a cached line (penalized)
    uint64_t prefIssued = 0;
    uint64_t prefDropped = 0;
    uint64_t hwPrefetches = 0;
    uint64_t writebacks = 0;
    uint64_t busBytes = 0;
    // Per-level accounting (observability layer; appended so existing
    // aggregate initializers keep their field positions).
    uint64_t loadHitL1 = 0;
    uint64_t loadHitL2 = 0;   ///< L1 misses served by the L2
    uint64_t storeHitL1 = 0;
    uint64_t storeHitL2 = 0;
    uint64_t evictL1 = 0;     ///< valid lines displaced from the L1
    uint64_t evictL2 = 0;
    uint64_t prefUseful = 0;  ///< prefetched lines later hit by demand
    friend bool operator==(const Stats&, const Stats&) = default;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  void resetStats() { stats_ = {}; }

  /// Cycle at which the bus becomes idle (exposed for tests).
  [[nodiscard]] uint64_t busFreeTime() const { return bus_free_; }

  /// The state of one way; its tag lives in Level::tags.
  struct Line {
    uint64_t lastUse = 0;    ///< LRU stamp (0 = prefer for eviction)
    uint64_t fillReady = 0;  ///< cycle the fill completes (in-flight lines)
    bool dirty = false;
    bool exclusive = false;  ///< owned for writing (no upgrade needed)
    bool nt = false;         ///< non-temporal fill: preferred eviction victim
    bool pref = false;       ///< filled by a prefetch, not yet demand-hit
    /// Names the padding: every evaluation builds a fresh MemSystem, and
    /// with no unnamed bytes its line array is zeroed by one memset.
    uint32_t unused = 0;
  };
  /// Tag of an invalid way.  Line addresses are line-aligned, so no line
  /// address ever equals it.
  static constexpr uint64_t kNoTag = UINT64_MAX;
  static constexpr size_t kNoSlot = SIZE_MAX;
  struct Level {
    arch::CacheLevelConfig cfg;
    int setShift = 0;      ///< log2(lineBytes)
    uint64_t setMask = 0;  ///< numSets - 1
    /// Way tags, numSets * assoc, set-major; kNoTag marks an invalid way.
    /// Lookups scan this dense array, not the Line structs.
    std::span<uint64_t> tags;
    std::span<Line> lines;  ///< parallel to tags
    /// Holds tags, then lines, in one allocation.  With one allocation per
    /// array, the serve daemon's short evaluations (a fresh MemSystem
    /// each) took about 10% more minor page faults in glibc's arenas.
    std::unique_ptr<uint64_t[]> storage;

    [[nodiscard]] size_t setBase(uint64_t laddr) const {
      return static_cast<size_t>((laddr >> setShift) & setMask) *
             static_cast<size_t>(cfg.assoc);
    }
    /// Slot holding lineAddr, or kNoSlot.
    [[nodiscard]] size_t findSlot(uint64_t lineAddr) const;
    Line* find(uint64_t lineAddr) {
      const size_t slot = findSlot(lineAddr);
      return slot == kNoSlot ? nullptr : &lines[slot];
    }
    /// The slot holding lineAddr (sets *hit), else the victim slot of its
    /// set: an invalid way, else the oldest NT line, else the LRU line.
    [[nodiscard]] size_t findOrVictim(uint64_t lineAddr, bool* hit) const;
  };

  /// Cache level `i` (0 = L1), read-only (exposed for tests).
  [[nodiscard]] const Level& level(size_t i) const { return levels_[i]; }

 private:
  [[nodiscard]] uint64_t lineAddr(uint64_t addr) const {
    return addr & ~static_cast<uint64_t>(line_bytes_ - 1);
  }

  enum class BusDir { Read, Write };
  /// Acquires the bus for one line transfer; returns the grant cycle.
  uint64_t busAcquire(uint64_t now, BusDir dir);
  uint64_t busAcquireImpl(uint64_t now, BusDir dir, bool buffered);

  /// Fetches a line from memory (deduplicating against in-flight fills);
  /// returns the data-ready cycle.  `forWrite` installs it exclusive;
  /// `isPrefetch` marks the installed lines for prefetch-useful accounting.
  uint64_t fetchLine(uint64_t laddr, uint64_t now, bool forWrite,
                     bool intoL1, bool intoL2, bool ntHint,
                     bool isPrefetch = false);

  void installLine(Level& level, uint64_t laddr, uint64_t now,
                   uint64_t fillReady, bool dirty, bool exclusive, bool ntHint,
                   bool prefetched = false);
  /// Demand access touched `line`: credits a useful prefetch once.
  void noteDemandHit(Line& line);
  void flushWC(uint64_t now, size_t idx);
  /// Trains the hardware stride prefetcher on a demand miss and issues
  /// ahead-fetches into the L2 once a sequential stream is detected.
  void trainHwPrefetcher(uint64_t laddr, uint64_t now);

  /// L1 lookup accelerator: the slots of the two most recently hit lines
  /// (streaming kernels touch each line several times in a row, and two
  /// entries cover a load stream and a store stream).  Pure cache of
  /// Level::find — the tag check re-validates on every use, so results are
  /// identical.
  Line* findL1(uint64_t laddr);

  const arch::MachineConfig& cfg_;
  int line_bytes_;
  /// Bus cycles one line transfer occupies (line size / bandwidth).
  uint64_t bus_line_cycles_;
  std::vector<Level> levels_;
  uint64_t bus_free_ = 0;
  BusDir bus_last_dir_ = BusDir::Read;
  uint64_t use_counter_ = 1;
  /// lineAddr -> ready cycle.  Flat, unordered, swap-pop erase: MSHR counts
  /// are a handful, so linear scans beat hashing; no consumer depends on
  /// order (min/existence scans only).
  std::vector<std::pair<uint64_t, uint64_t>> inflight_;
  StoreBuffer store_buffer_;
  size_t l1_mru_[2] = {0, 0};  ///< MRU-first L1 slots; see findL1
  /// Line known absent from every level (the last NT-stored line: storeNT
  /// invalidates it and only installLine can bring it back).  Lets the NT
  /// fast path skip the cache walk on streaming NT stores.
  uint64_t nt_uncached_line_ = UINT64_MAX;
  // Write-combining buffers (cfg.wcBuffers of them).
  struct WcEntry {
    uint64_t line = UINT64_MAX;
    uint32_t bytes = 0;
    uint64_t lastUse = 0;
  };
  std::vector<WcEntry> wc_;
  uint64_t wc_extra_delay_ = 0;  ///< pending NT flush penalty
  struct Stream {
    uint64_t lastLine = 0;
    int streak = 0;
    uint64_t lastUse = 0;
  };
  Stream streams_[8];
  Stats stats_;
  Service last_service_ = Service::None;
};

}  // namespace ifko::sim
