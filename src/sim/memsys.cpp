#include "sim/memsys.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

namespace ifko::sim {

uint64_t StoreBuffer::reserve(uint64_t ready, uint64_t now) {
  if (heap_.size() < entries_) {
    heap_.push_back(ready);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<uint64_t>());
    return now + 1;
  }
  // Full: the earliest of the outstanding commits and this one drains
  // first.  When that is this one, the buffer is unchanged; otherwise this
  // one takes the root's place and sifts down.
  if (heap_.empty() || ready <= heap_.front()) return std::max(now + 1, ready);
  const uint64_t wait = heap_.front();
  const size_t n = heap_.size();
  size_t hole = 0;
  for (size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
    if (heap_[child] >= ready) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = ready;
  return std::max(now + 1, wait);
}

MemSystem::MemSystem(const arch::MachineConfig& cfg)
    : cfg_(cfg),
      line_bytes_(cfg.lineBytes()),
      bus_line_cycles_(static_cast<uint64_t>(std::llround(
          static_cast<double>(line_bytes_) / cfg.busBytesPerCycle))),
      store_buffer_(cfg.storeBufferEntries) {
  for (size_t i = 0; i < cfg.caches.size(); ++i) {
    const arch::CacheLevelConfig& lc = cfg.caches[i];
    const int way = lc.lineBytes * lc.assoc;
    const int numSets = way > 0 ? lc.sizeBytes / way : 0;
    if (lc.lineBytes <= 0 || lc.assoc <= 0 || numSets <= 0 ||
        !std::has_single_bit(static_cast<unsigned>(lc.lineBytes)) ||
        !std::has_single_bit(static_cast<unsigned>(numSets)))
      throw std::invalid_argument(
          "MemSystem: machine '" + cfg.name + "' cache L" +
          std::to_string(i + 1) + " has line size " +
          std::to_string(lc.lineBytes) + " and " + std::to_string(numSets) +
          " sets; both must be powers of two");
    Level level;
    level.cfg = lc;
    level.setShift = std::countr_zero(static_cast<unsigned>(lc.lineBytes));
    level.setMask = static_cast<uint64_t>(numSets) - 1;
    const size_t slots = static_cast<size_t>(numSets) * lc.assoc;
    static_assert(sizeof(Line) % sizeof(uint64_t) == 0 &&
                  alignof(Line) <= alignof(uint64_t));
    constexpr size_t kLineWords = sizeof(Line) / sizeof(uint64_t);
    level.storage = std::make_unique_for_overwrite<uint64_t[]>(
        slots * (1 + kLineWords));
    level.tags = {level.storage.get(), slots};
    std::fill(level.tags.begin(), level.tags.end(), kNoTag);
    Line* lines = reinterpret_cast<Line*>(level.storage.get() + slots);
    std::uninitialized_value_construct_n(lines, slots);
    level.lines = {lines, slots};
    levels_.push_back(std::move(level));
  }
}

size_t MemSystem::Level::findSlot(uint64_t laddr) const {
  const size_t base = setBase(laddr);
  const uint64_t* set = tags.data() + base;
  for (int i = 0; i < cfg.assoc; ++i)
    if (set[i] == laddr) return base + static_cast<size_t>(i);
  return kNoSlot;
}

MemSystem::Line* MemSystem::findL1(uint64_t laddr) {
  // Tags are unique within a level (installLine dedupes), and a tag can only
  // live in its own set, so a tag match IS the line find would return.
  Level& l1 = levels_[0];
  if (l1.tags[l1_mru_[0]] == laddr) return &l1.lines[l1_mru_[0]];
  if (l1.tags[l1_mru_[1]] == laddr) {
    std::swap(l1_mru_[0], l1_mru_[1]);
    return &l1.lines[l1_mru_[0]];
  }
  const size_t slot = l1.findSlot(laddr);
  if (slot == kNoSlot) return nullptr;
  l1_mru_[1] = l1_mru_[0];
  l1_mru_[0] = slot;
  return &l1.lines[slot];
}

size_t MemSystem::Level::findOrVictim(uint64_t laddr, bool* hit) const {
  const size_t base = setBase(laddr);
  const size_t end = base + static_cast<size_t>(cfg.assoc);
  // One pass finds the line or the victim: an invalid way first; then the
  // oldest non-temporal line (prefetchnta marks its fills as first-out);
  // then plain LRU.
  size_t invalid = kNoSlot;
  size_t oldestNt = kNoSlot;
  size_t oldest = kNoSlot;
  for (size_t i = base; i < end; ++i) {
    if (tags[i] == laddr) {
      *hit = true;
      return i;
    }
    if (tags[i] == kNoTag) {
      if (invalid == kNoSlot) invalid = i;
      continue;
    }
    const uint64_t age = lines[i].lastUse;
    if (lines[i].nt && (oldestNt == kNoSlot || age < lines[oldestNt].lastUse))
      oldestNt = i;
    if (oldest == kNoSlot || age < lines[oldest].lastUse) oldest = i;
  }
  *hit = false;
  if (invalid != kNoSlot) return invalid;
  return oldestNt != kNoSlot ? oldestNt : oldest;
}

uint64_t MemSystem::busAcquire(uint64_t now, BusDir dir) {
  return busAcquireImpl(now, dir, /*buffered=*/false);
}

uint64_t MemSystem::busAcquireImpl(uint64_t now, BusDir dir, bool buffered) {
  const uint64_t cycles = bus_line_cycles_;
  stats_.busBytes += static_cast<uint64_t>(line_bytes_);
  if (buffered) {
    // Buffered writes (writebacks, WC flushes) are pure bandwidth
    // consumers: they extend the bus schedule from wherever it stands and
    // never synchronize with the (possibly late) request time -- the
    // controller drains them opportunistically.
    bus_last_dir_ = dir;
    bus_free_ += cycles;
    return bus_free_ - cycles;
  }
  uint64_t start = std::max(now, bus_free_);
  // A read that follows written data pays the turnaround (DRAM
  // write-to-read).  This asymmetry is what block fetch exploits by
  // grouping reads before writes.
  if (dir == BusDir::Read && bus_last_dir_ == BusDir::Write)
    start += static_cast<uint64_t>(cfg_.busTurnaround);
  bus_last_dir_ = dir;
  bus_free_ = start + cycles;
  return start;
}

void MemSystem::installLine(Level& level, uint64_t laddr, uint64_t now,
                            uint64_t fillReady, bool dirty, bool exclusive,
                            bool ntHint, bool prefetched) {
  if (laddr == nt_uncached_line_) nt_uncached_line_ = UINT64_MAX;
  bool present = false;
  const size_t slot = level.findOrVictim(laddr, &present);
  Line& v = level.lines[slot];
  if (present) {
    v.dirty = v.dirty || dirty;
    v.exclusive = v.exclusive || exclusive;
    v.fillReady = std::max(v.fillReady, fillReady);
    v.lastUse = use_counter_++;
    v.nt = v.nt && ntHint;
    v.pref = v.pref && prefetched;
    return;
  }
  const bool valid = level.tags[slot] != kNoTag;
  if (valid) {
    // Per-level eviction accounting (the dirty ones also write back below).
    if (&level == &levels_[0])
      ++stats_.evictL1;
    else
      ++stats_.evictL2;
  }
  if (valid && v.dirty) {
    // Writeback: buffered by the controller, occupies bandwidth but causes
    // no read/write turnaround and nothing waits on it.
    busAcquireImpl(now, BusDir::Write, /*buffered=*/true);
    ++stats_.writebacks;
  }
  level.tags[slot] = laddr;
  v.dirty = dirty;
  v.exclusive = exclusive;
  v.fillReady = fillReady;
  // Non-temporal fills are marked first-out (prefetchnta's "nearest cache,
  // do not pollute" behaviour) but age normally among themselves.
  v.nt = ntHint;
  v.pref = prefetched;
  v.lastUse = use_counter_++;
}

void MemSystem::noteDemandHit(Line& line) {
  if (line.pref) {
    line.pref = false;
    ++stats_.prefUseful;
  }
}

uint64_t MemSystem::fetchLine(uint64_t laddr, uint64_t now, bool forWrite,
                              bool intoL1, bool intoL2, bool ntHint,
                              bool isPrefetch) {
  // Deduplicate against in-flight fills.
  for (auto& e : inflight_) {
    if (e.first != laddr) continue;
    uint64_t ready = e.second;
    if (ready <= now) {
      e = inflight_.back();
      inflight_.pop_back();
    }
    return std::max(ready, now);
  }
  // MSHR capacity: block until a slot frees (drop stale entries first).
  for (;;) {
    for (size_t i = 0; i < inflight_.size();) {
      if (inflight_[i].second <= now) {
        inflight_[i] = inflight_.back();
        inflight_.pop_back();
      } else {
        ++i;
      }
    }
    if (inflight_.size() <
        static_cast<size_t>(cfg_.maxOutstandingMisses))
      break;
    // Wait for the earliest outstanding fill.
    uint64_t earliest = UINT64_MAX;
    for (const auto& [a, t] : inflight_) earliest = std::min(earliest, t);
    now = std::max(now, earliest);
  }
  uint64_t grant = busAcquire(now, BusDir::Read);
  uint64_t ready = grant + static_cast<uint64_t>(cfg_.memLatency);
  inflight_.emplace_back(laddr, ready);
  ++stats_.loadMissMem;
#ifdef IFKO_DEBUG_MEM
  std::fprintf(stderr,
               "fetch %#llx now=%llu grant=%llu ready=%llu inflight=%zu\n",
               (unsigned long long)laddr, (unsigned long long)now,
               (unsigned long long)grant, (unsigned long long)ready,
               inflight_.size());
#endif
  if (intoL2 && levels_.size() > 1)
    installLine(levels_[1], laddr, now, ready, forWrite && false, forWrite,
                ntHint && !intoL1, isPrefetch);
  if (intoL1)
    installLine(levels_[0], laddr, now, ready, false, forWrite, ntHint,
                isPrefetch);
  return ready;
}

uint64_t MemSystem::load(uint64_t addr, uint32_t bytes, uint64_t now) {
  ++stats_.loads;
  uint64_t laddr = lineAddr(addr);
  // A 16-byte access can straddle two lines only if misaligned; kernels keep
  // vectors aligned, so model the access by its first line.
  (void)bytes;
  Level& l1 = levels_[0];
  if (Line* hit = findL1(laddr)) {
    hit->lastUse = use_counter_++;
    ++stats_.loadHitL1;
    noteDemandHit(*hit);
    last_service_ = Service::L1;
    return std::max(now + l1.cfg.latency, hit->fillReady + l1.cfg.latency);
  }
  ++stats_.loadMissL1;
  trainHwPrefetcher(laddr, now);
  if (levels_.size() > 1) {
    Level& l2 = levels_[1];
    if (Line* hit = l2.find(laddr)) {
      hit->lastUse = use_counter_++;
      ++stats_.loadHitL2;
      noteDemandHit(*hit);
      last_service_ = Service::L2;
      uint64_t ready =
          std::max(now + l2.cfg.latency,
                   hit->fillReady + static_cast<uint64_t>(l2.cfg.latency));
      installLine(l1, laddr, now, ready, false, hit->exclusive, false);
      return ready;
    }
  }
  uint64_t ready = fetchLine(laddr, now, /*forWrite=*/false, /*intoL1=*/true,
                             /*intoL2=*/true, /*ntHint=*/false);
  last_service_ = Service::Mem;
  return std::max(ready, now + l1.cfg.latency);
}

void MemSystem::trainHwPrefetcher(uint64_t laddr, uint64_t now) {
  if (cfg_.hwPrefetchDepth <= 0) return;
  // Find a stream this miss continues.
  Stream* match = nullptr;
  for (auto& s : streams_)
    if (s.streak > 0 &&
        laddr == s.lastLine + static_cast<uint64_t>(line_bytes_))
      match = &s;
  if (match == nullptr) {
    // Start (or restart) a stream in the least recently used slot.
    Stream* victim = &streams_[0];
    for (auto& s : streams_)
      if (s.lastUse < victim->lastUse) victim = &s;
    victim->lastLine = laddr;
    victim->streak = 1;
    victim->lastUse = ++use_counter_;
    return;
  }
  match->lastLine = laddr;
  match->streak += 1;
  match->lastUse = ++use_counter_;
  if (match->streak < cfg_.hwPrefetchTrainStreak) return;

  // Like software prefetch, the prefetcher is throttled while the MSHRs are
  // full or the bus is backed up.  Only an issued fetch changes either, and
  // skipped targets have no effect, so the loop stops as soon as no fetch
  // could be issued.
  auto canIssue = [&] {
    return inflight_.size() < static_cast<size_t>(cfg_.maxOutstandingMisses) &&
           bus_free_ <= now + static_cast<uint64_t>(cfg_.prefetchDropBacklog);
  };
  for (int d = 1; d <= cfg_.hwPrefetchDepth && canIssue(); ++d) {
    uint64_t target = laddr + static_cast<uint64_t>(d) *
                                  static_cast<uint64_t>(line_bytes_);
    // Like the 2005 hardware, the stream prefetcher does not cross 4KB
    // page boundaries (software prefetch does -- one of its advantages).
    if ((target >> 12) != (laddr >> 12)) break;
    if (levels_.size() > 1 && levels_[1].findSlot(target) != kNoSlot) continue;
    if (levels_[0].findSlot(target) != kNoSlot) continue;
    bool inFlight = false;
    for (const auto& [a, t] : inflight_) inFlight |= a == target;
    if (inFlight) continue;
    ++stats_.hwPrefetches;
    fetchLine(target, now, /*forWrite=*/false, /*intoL1=*/false,
              /*intoL2=*/true, /*ntHint=*/false, /*isPrefetch=*/true);
  }
}

uint64_t MemSystem::store(uint64_t addr, uint32_t bytes, uint64_t now) {
  ++stats_.stores;
  (void)bytes;
  uint64_t laddr = lineAddr(addr);

  Level& l1 = levels_[0];
  Line* l1hit = findL1(laddr);
  if (l1hit == nullptr) trainHwPrefetcher(laddr, now);
  if (Line* hit = l1hit) {
    hit->lastUse = use_counter_++;
    ++stats_.storeHitL1;
    noteDemandHit(*hit);
    last_service_ = Service::L1;
    uint64_t extra = 0;
    if (!hit->exclusive) {
      // Ownership upgrade: short address-only transaction; costs the store
      // a few cycles but transfers no data.
      extra = 4;
      hit->exclusive = true;
    }
    hit->dirty = true;
    return store_buffer_.reserve(std::max(hit->fillReady, now + 1 + extra),
                                 now);
  }
  if (levels_.size() > 1) {
    Level& l2 = levels_[1];
    if (Line* hit = l2.find(laddr)) {
      hit->lastUse = use_counter_++;
      ++stats_.storeHitL2;
      noteDemandHit(*hit);
      last_service_ = Service::L2;
      uint64_t extra = 0;
      if (!hit->exclusive) {
        extra = 4;
        hit->exclusive = true;
      }
      hit->dirty = true;
      installLine(l1, laddr, now, hit->fillReady, true, true, false);
      return store_buffer_.reserve(
          std::max(hit->fillReady, now + 1 + extra), now);
    }
  }
  // Write-allocate miss: read-for-ownership fetch, then the store commits.
  ++stats_.storeRFOs;
  uint64_t ready = fetchLine(laddr, now, /*forWrite=*/true, /*intoL1=*/true,
                             /*intoL2=*/true, /*ntHint=*/false);
  last_service_ = Service::Mem;
  if (Line* hit = l1.find(laddr)) hit->dirty = true;
  return store_buffer_.reserve(ready, now);
}

void MemSystem::flushWC(uint64_t now, size_t idx) {
  WcEntry& e = wc_[idx];
  if (e.line == UINT64_MAX) return;
  // Partial lines transfer at full line cost (uncombined WC flush); any
  // pending NT-flush penalty is charged to the bus here.
  bus_free_ += wc_extra_delay_;
  busAcquireImpl(now, BusDir::Write, /*buffered=*/true);
  e.line = UINT64_MAX;
  e.bytes = 0;
  wc_extra_delay_ = 0;
}

uint64_t MemSystem::storeNT(uint64_t addr, uint32_t bytes, uint64_t now) {
  ++stats_.ntStores;
  uint64_t laddr = lineAddr(addr);

  // NT stores bypass the caches; a line that is currently cached must be
  // invalidated (and on machines where NT interacts poorly with cached
  // read-modify-write streams, pay the flush penalty).  A streaming NT
  // store revisits the line it just invalidated: the cache walk is skipped
  // while the line is provably absent (installLine clears the memo).
  if (laddr != nt_uncached_line_) {
    bool wasCached = false;
    for (auto& level : levels_) {
      const size_t slot = level.findSlot(laddr);
      if (slot == kNoSlot) continue;
      wasCached = true;
      if (level.lines[slot].dirty) {
        busAcquireImpl(now, BusDir::Write, /*buffered=*/true);
        ++stats_.writebacks;
      }
      level.tags[slot] = kNoTag;
    }
    if (wasCached && !cfg_.ntStoreCheapWhenCached) {
      ++stats_.ntFlushes;
      wc_extra_delay_ += static_cast<uint64_t>(cfg_.ntFlushPenalty);
    }
    nt_uncached_line_ = laddr;
  }

  if (wc_.empty()) wc_.resize(static_cast<size_t>(cfg_.wcBuffers));
  size_t slot = SIZE_MAX;
  for (size_t i = 0; i < wc_.size(); ++i)
    if (wc_[i].line == laddr) slot = i;
  if (slot == SIZE_MAX) {
    // Take a free buffer, or evict (flush) the least recently used one.
    for (size_t i = 0; i < wc_.size() && slot == SIZE_MAX; ++i)
      if (wc_[i].line == UINT64_MAX) slot = i;
    if (slot == SIZE_MAX) {
      slot = 0;
      for (size_t i = 1; i < wc_.size(); ++i)
        if (wc_[i].lastUse < wc_[slot].lastUse) slot = i;
      flushWC(now, slot);
    }
    wc_[slot].line = laddr;
    wc_[slot].bytes = 0;
  }
  wc_[slot].bytes += bytes;
  wc_[slot].lastUse = ++use_counter_;
  if (wc_[slot].bytes >= static_cast<uint32_t>(line_bytes_)) flushWC(now, slot);
  return now + 1;
}

void MemSystem::prefetch(ir::PrefKind kind, uint64_t addr, uint64_t now) {
  uint64_t laddr = lineAddr(addr);
  // Already resident or in flight: nothing to do (not counted as dropped).
  if (findL1(laddr) != nullptr) return;
  const Line* l2Hit = levels_.size() > 1 ? levels_[1].find(laddr) : nullptr;
  for (const auto& [a, t] : inflight_)
    if (a == laddr) return;

  // The drop rule: a busy bus or full MSHRs silently discards the prefetch.
  for (size_t i = 0; i < inflight_.size();) {
    if (inflight_[i].second <= now) {
      inflight_[i] = inflight_.back();
      inflight_.pop_back();
    } else {
      ++i;
    }
  }
  if (inflight_.size() >= static_cast<size_t>(cfg_.maxOutstandingMisses) ||
      bus_free_ > now + static_cast<uint64_t>(cfg_.prefetchDropBacklog)) {
    ++stats_.prefDropped;
    return;
  }

  bool intoL1 = kind != ir::PrefKind::T1;
  bool intoL2 = kind == ir::PrefKind::T0 || kind == ir::PrefKind::T1 ||
                kind == ir::PrefKind::W;
  bool ntHint = kind == ir::PrefKind::NTA;
  bool forWrite = kind == ir::PrefKind::W;
  ++stats_.prefIssued;
  if (l2Hit != nullptr) {
    // L2 -> L1 move: no memory traffic, just install.
    if (intoL1)
      installLine(levels_[0], laddr, now, now + levels_[1].cfg.latency, false,
                  l2Hit->exclusive, ntHint, /*prefetched=*/true);
    return;
  }
  fetchLine(laddr, now, forWrite, intoL1, intoL2, ntHint, /*isPrefetch=*/true);
}

void MemSystem::warm(uint64_t addr, uint64_t bytes) {
  uint64_t first = lineAddr(addr);
  uint64_t last = lineAddr(addr + (bytes == 0 ? 0 : bytes - 1));
  for (uint64_t laddr = first; laddr <= last;
       laddr += static_cast<uint64_t>(line_bytes_)) {
    for (auto& level : levels_)
      installLine(level, laddr, 0, 0, false, true, false);
  }
}

}  // namespace ifko::sim
