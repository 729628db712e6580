// Persistent, content-addressed memo of candidate evaluations.
//
// Empirical search pays for portability with turnaround time: the line
// search re-times hundreds of candidates per kernel, and the restricted
// (UR, AE) refinement and repeated `tune` runs revisit many of them.  The
// simulator is deterministic, so an evaluation is a pure function of its
// EvalKey — which makes every result safe to memoize forever, and makes
// caches written by different processes (or machines) freely mergeable:
// two records with the same key are the same result.
//
// Persistence is a JSONL file: one flat object per line, loaded wholesale
// at open() and appended as the search runs.  Every append is one whole
// line issued as a single write(2) on an O_APPEND descriptor — the kernel
// serializes O_APPEND writes, so any number of processes appending to the
// same file interleave at line granularity, never mid-line.  A killed run
// loses at most the line being written, and malformed lines are skipped on
// load (counted, never fatal).
//
// Shard mode (openDir) is the fleet posture: a directory holds one
// `cache.<shard>.jsonl` per writer.  Opening the directory loads *every*
// shard (so a worker never redoes an evaluation any other worker already
// persisted — cross-worker dedup at load granularity) and appends new
// results to the caller's own shard file only.  mergeFiles() folds any set
// of cache files into one deduplicated, key-sorted file; because records
// are pure functions of their keys, "merge" is just set union.
//
// Schema v3: each line records the evaluation's `status`
// (timed|compile_fail|tester_fail|timeout|crash), so warm runs replay
// failures faithfully, and a timed line nests a `counters` object
// (search/counters.h) — the per-cause cycle attribution, memory-system
// counters, and compile observability of the evaluation — so warm replays
// steer the attribution strategy and surface the same `ifko explain`
// attribution as a cold run.  Lines of earlier schemas (no `status`, or a
// timed line without `counters`) load as damage: their candidates are
// evaluated again and appended as v3 lines.  `ifko cache-merge` rewrites
// an old file without them.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "search/linesearch.h"

namespace ifko::search {

/// Identity of one evaluation: everything the deterministic result depends
/// on.  `sourceHash` is ifko::hashHex of the HIL source text; `params` is
/// the canonical opt::formatTuningSpec string; `testerN` is included
/// because a tester-rejected candidate records 0 cycles, and rejection
/// depends on the tester length.
struct EvalKey {
  std::string sourceHash;
  std::string machine;
  std::string context;  ///< sim::contextName: "out-of-cache" | "in-L2"
  int64_t n = 0;
  uint64_t seed = 0;
  int64_t testerN = 0;
  std::string params;

  /// Canonical joined form, the in-memory map key.
  [[nodiscard]] std::string str() const;
};

/// One memoized evaluation: the cycles, how the evaluation ended, and (for
/// v3 timed entries) the observability counters.
struct EvalRecord {
  uint64_t cycles = 0;
  EvalOutcome::Status status = EvalOutcome::Status::Timed;
  std::optional<EvalCounters> counters;
};

/// What mergeFiles() did: how many inputs it read and what became of every
/// line.  `duplicates` counts lines whose key an earlier line already
/// supplied — the cross-worker work the merge deduplicated.
struct CacheMergeStats {
  size_t files = 0;
  size_t lines = 0;       ///< well-formed records read, duplicates included
  size_t unique = 0;      ///< records written to the output
  size_t duplicates = 0;  ///< lines - unique
  size_t damaged = 0;     ///< unparseable lines skipped across all inputs
};

/// Thread-safe evaluation memo with optional JSONL persistence.
class EvalCache {
 public:
  EvalCache() = default;
  ~EvalCache();
  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// Attaches a persistence file: loads every well-formed line, then opens
  /// it for appending.  Returns false (with *error) when the file exists
  /// but cannot be read, or cannot be opened for appending; the cache then
  /// stays memory-only.
  bool open(const std::string& path, std::string* error = nullptr);

  /// Shard mode: creates `dir` if needed, loads every `cache.*.jsonl` file
  /// in it (sorted by name, so the load order is deterministic), then
  /// appends new results to `dir`/cache.`shard`.jsonl only.  Records the
  /// other shards already hold are in memory after the load, so insert()
  /// of an already-known key writes nothing — no two cooperating workers
  /// persist the same evaluation twice.  Note the load is a snapshot:
  /// records another worker appends *after* this open are deduplicated at
  /// merge time (mergeFiles), not live.
  bool openDir(const std::string& dir, const std::string& shard,
               std::string* error = nullptr);

  /// The shard file openDir() appends to: `dir`/cache.`shard`.jsonl.
  [[nodiscard]] static std::string shardFileName(const std::string& dir,
                                                 const std::string& shard);

  /// Every cache.*.jsonl file in `dir`, sorted — the shard set openDir()
  /// would load.  Empty (with *error) when the directory is unreadable.
  [[nodiscard]] static std::vector<std::string> shardFiles(
      const std::string& dir, std::string* error = nullptr);

  /// Folds any set of cache files into one deduplicated file at `outPath`,
  /// records sorted by key and written atomically (unique temp + rename),
  /// so merging the same inputs in any order produces byte-identical
  /// output.  Returns false with *error when an input cannot be read or
  /// the output cannot be written.
  static bool mergeFiles(const std::vector<std::string>& inputs,
                         const std::string& outPath,
                         std::string* error = nullptr,
                         CacheMergeStats* stats = nullptr);

  /// Returns the memoized record, counting a hit or miss.
  [[nodiscard]] std::optional<EvalRecord> lookup(const EvalKey& key);

  /// Records the evaluation (cycles, failure status, and — when available —
  /// the observability counters) and appends it to the persistence file
  /// when one is attached.  Re-inserting an existing key is a no-op (no
  /// duplicate line is written).
  void insert(const EvalKey& key, uint64_t cycles,
              EvalOutcome::Status status = EvalOutcome::Status::Timed,
              const std::optional<EvalCounters>& counters = std::nullopt);

  [[nodiscard]] size_t size() const;
  [[nodiscard]] uint64_t hits() const;
  [[nodiscard]] uint64_t misses() const;
  /// hits / (hits + misses); 0 when nothing was looked up.
  [[nodiscard]] double hitRate() const;
  void resetStats();

  /// Lines the last open()/openDir() skipped as damaged (unparseable JSON
  /// or missing fields) — a crash can truncate at most the final line of
  /// each file, so more than one per file suggests real corruption worth
  /// telling the user about.
  [[nodiscard]] size_t damagedLines() const;

  /// One cache line in the persisted format (no trailing newline) — the
  /// exact bytes insert() appends, exposed for mergeFiles and tests.
  [[nodiscard]] static std::string formatLine(const EvalKey& key,
                                              const EvalRecord& rec);
  /// Parses one persisted line back into (key, record); false for damaged
  /// lines (unparseable, missing fields, or an unknown status).
  [[nodiscard]] static bool parseLine(const std::string& line, EvalKey* key,
                                      EvalRecord* rec);

 private:
  /// Merges every well-formed line of `path` into map_ (damaged lines
  /// counted).  A missing file is fine (fresh cache); false with *error
  /// only on a read error.  Caller holds mu_.
  bool loadFileLocked(const std::string& path, std::string* error);

  mutable std::mutex mu_;
  std::unordered_map<std::string, EvalRecord> map_;
  int outFd_ = -1;  ///< O_APPEND descriptor; -1 = memory-only
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  size_t damagedLines_ = 0;
};

}  // namespace ifko::search
