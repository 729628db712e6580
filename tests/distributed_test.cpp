// Fleet-scale tuning: the deterministic worker partition must cover the
// job list exactly once, concurrent appenders must interleave the shared
// eval cache at line granularity (O_APPEND single-write appends), shard
// directories must dedup across writers, mergeFiles must be an
// order-independent set union, concurrent wisdom savers must never tear
// the file, and a plain rerun on the same cache after a kill -9 — at a
// kernel boundary or mid-kernel — must reproduce the uninterrupted run's
// results exactly, with zero duplicate evaluations persisted.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "search/evalcache.h"
#include "search/orchestrator.h"
#include "wisdom/wisdom.h"

namespace ifko::search {
namespace {

using kernels::BlasOp;
using kernels::KernelSpec;

SearchConfig smokeConfig(int jobs = 1) {
  SearchConfig c = SearchConfig::smoke();
  c.jobs = jobs;
  return c;
}

KernelJob jobFor(const KernelSpec& spec) {
  return {spec.name(), spec.hilSource(), &spec};
}

std::string tmpFile(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

EvalKey keyFor(const std::string& params) {
  EvalKey key;
  key.sourceHash = "cafebabe";
  key.machine = "P4E";
  key.context = "out-of-cache";
  key.n = 4096;
  key.seed = 42;
  key.testerN = 64;
  key.params = params;
  return key;
}

/// Every cache key persisted in `path`, duplicates preserved.
std::vector<std::string> cacheKeys(const std::string& path) {
  std::vector<std::string> keys;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EvalKey key;
    EvalRecord rec;
    EXPECT_TRUE(EvalCache::parseLine(line, &key, &rec)) << line;
    keys.push_back(key.str());
  }
  return keys;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// ---------------------------------------------------------------------------
// workerSlice: the no-coordination registry partition.

TEST(WorkerSlice, PartitionCoversEveryJobExactlyOnce) {
  std::vector<KernelJob> jobs;
  for (int i = 0; i < 7; ++i) jobs.push_back({"k" + std::to_string(i), "", nullptr});

  std::multiset<std::string> covered;
  for (int w = 0; w < 3; ++w) {
    auto slice = workerSlice(jobs, 3, w);
    // Worker w keeps exactly the jobs at indices i % 3 == w, in order.
    size_t expect = 0;
    for (size_t i = 0; i < jobs.size(); ++i)
      if (static_cast<int>(i % 3) == w) ++expect;
    ASSERT_EQ(slice.size(), expect);
    size_t at = 0;
    for (size_t i = 0; i < jobs.size(); ++i)
      if (static_cast<int>(i % 3) == w) EXPECT_EQ(slice[at++].name, jobs[i].name);
    for (const auto& j : slice) covered.insert(j.name);
  }
  ASSERT_EQ(covered.size(), jobs.size());  // no overlap, no gap
  for (const auto& j : jobs) EXPECT_EQ(covered.count(j.name), 1u);

  // One worker == no partition at all.
  EXPECT_EQ(workerSlice(jobs, 1, 0).size(), jobs.size());
  // More workers than jobs: the excess workers get empty slices.
  EXPECT_TRUE(workerSlice(jobs, 100, 99).empty());
}

// ---------------------------------------------------------------------------
// O_APPEND appends: many processes, one file, line granularity.

TEST(EvalCacheAppend, ConcurrentAppendersNeverTearLines) {
  const std::string path = tmpFile("dist_concurrent_append.jsonl");
  std::remove(path.c_str());
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 300;

  std::vector<pid_t> children;
  for (int w = 0; w < kWriters; ++w) {
    pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      // Child: a writer process appending its own unique keys.  Every
      // insert is one whole line in a single write(2) on an O_APPEND fd,
      // so these four writers may interleave freely but never mid-line.
      EvalCache cache;
      if (!cache.open(path)) ::_exit(2);
      for (int i = 0; i < kPerWriter; ++i) {
        const std::string params =
            "w" + std::to_string(w) + "_" + std::to_string(i);
        cache.insert(keyFor(params), 1000 + i, EvalOutcome::Status::Timed,
                     EvalCounters{});
      }
      ::_exit(0);
    }
    children.push_back(pid);
  }
  for (pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  // Every line of the shared file parses, and every key survived.
  EvalCache merged;
  std::string err;
  ASSERT_TRUE(merged.open(path, &err)) << err;
  EXPECT_EQ(merged.damagedLines(), 0u);
  EXPECT_EQ(merged.size(), static_cast<size_t>(kWriters * kPerWriter));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Shard mode: load every shard, append to our own only.

TEST(EvalCacheShards, OpenDirDedupsAcrossShardsAndAppendsOwnOnly) {
  const std::string dir = tmpFile("dist_shards");
  std::filesystem::remove_all(dir);  // a previous run's shards would skew counts
  std::string err;

  EvalCache a;
  ASSERT_TRUE(a.openDir(dir, "w0", &err)) << err;
  a.insert(keyFor("sv=Y ur=4"), 111, EvalOutcome::Status::Timed,
           EvalCounters{});

  EvalCache b;
  ASSERT_TRUE(b.openDir(dir, "w1", &err)) << err;
  EXPECT_EQ(b.size(), 1u);  // loaded w0's record at open
  // Re-inserting a key another shard already holds writes nothing...
  b.insert(keyFor("sv=Y ur=4"), 111, EvalOutcome::Status::Timed,
           EvalCounters{});
  // ...and a fresh key lands in b's own shard file only.
  b.insert(keyFor("sv=Y ur=8"), 222, EvalOutcome::Status::Timed,
           EvalCounters{});

  const auto w1Keys = cacheKeys(EvalCache::shardFileName(dir, "w1"));
  ASSERT_EQ(w1Keys.size(), 1u);
  EXPECT_EQ(w1Keys[0], keyFor("sv=Y ur=8").str());
  const auto w0Keys = cacheKeys(EvalCache::shardFileName(dir, "w0"));
  ASSERT_EQ(w0Keys.size(), 1u);
  EXPECT_EQ(w0Keys[0], keyFor("sv=Y ur=4").str());

  // The shard set is enumerable and sorted.
  const auto shards = EvalCache::shardFiles(dir, &err);
  ASSERT_EQ(shards.size(), 2u) << err;
  EXPECT_EQ(shards[0], EvalCache::shardFileName(dir, "w0"));
  EXPECT_EQ(shards[1], EvalCache::shardFileName(dir, "w1"));

  // A third worker opening the directory sees the union.
  EvalCache c;
  ASSERT_TRUE(c.openDir(dir, "w2", &err)) << err;
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.damagedLines(), 0u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// mergeFiles: order-independent set union with full accounting.

TEST(EvalCacheMerge, MergeDedupsCountsAndIsOrderIndependent) {
  const std::string fileA = tmpFile("dist_merge_a.jsonl");
  const std::string fileB = tmpFile("dist_merge_b.jsonl");
  const std::string outAB = tmpFile("dist_merge_ab.jsonl");
  const std::string outBA = tmpFile("dist_merge_ba.jsonl");

  EvalRecord rec;
  rec.cycles = 777;
  rec.counters = EvalCounters{};
  {
    std::ofstream a(fileA);
    a << EvalCache::formatLine(keyFor("k1"), rec) << "\n"
      << EvalCache::formatLine(keyFor("k2"), rec) << "\n";
    std::ofstream b(fileB);
    b << EvalCache::formatLine(keyFor("k2"), rec) << "\n"  // duplicate of A's
      << EvalCache::formatLine(keyFor("k3"), rec) << "\n"
      << "{not json — a torn tail\n";
  }

  std::string err;
  CacheMergeStats stats;
  ASSERT_TRUE(EvalCache::mergeFiles({fileA, fileB}, outAB, &err, &stats))
      << err;
  EXPECT_EQ(stats.files, 2u);
  EXPECT_EQ(stats.lines, 4u);
  EXPECT_EQ(stats.unique, 3u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.damaged, 1u);

  // Merging in the opposite order produces byte-identical output (records
  // are pure functions of their keys; output is key-sorted).
  ASSERT_TRUE(EvalCache::mergeFiles({fileB, fileA}, outBA, &err));
  EXPECT_EQ(slurp(outAB), slurp(outBA));

  // The merged file is itself a loadable cache holding the union.
  EvalCache merged;
  ASSERT_TRUE(merged.open(outAB, &err)) << err;
  EXPECT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged.damagedLines(), 0u);

  // A missing input is a hard error, not a silent partial merge.
  EXPECT_FALSE(EvalCache::mergeFiles({fileA, tmpFile("dist_no_such.jsonl")},
                                     outAB, &err));
  EXPECT_FALSE(err.empty());

  for (const auto& f : {fileA, fileB, outAB, outBA}) std::remove(f.c_str());
}

// ---------------------------------------------------------------------------
// WisdomStore::save: concurrent savers (pid-unique temp + rename) can race
// freely; the surviving file is always one saver's complete store.

TEST(WisdomConcurrency, ConcurrentSaversNeverTearTheFile) {
  const std::string path = tmpFile("dist_wisdom_race.jsonl");
  std::remove(path.c_str());
  constexpr int kSavers = 8;
  constexpr int kRecords = 12;
  constexpr int kRounds = 25;

  std::vector<pid_t> children;
  for (int w = 0; w < kSavers; ++w) {
    pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      // Every child saves the same 12-record store over and over; if the
      // temp name were shared (the old bug) two children would tear each
      // other's half-written temp before the rename.
      wisdom::WisdomStore store;
      for (int r = 0; r < kRecords; ++r) {
        wisdom::WisdomRecord rec;
        rec.key = {"hash" + std::to_string(r), "P4E", "out-of-cache", "2^12"};
        rec.kernel = "ddot";
        rec.params = "sv=Y ur=8";
        rec.bestCycles = 100 + r;
        rec.defaultCycles = 400 + r;
        rec.runId = "race-test";
        store.record(rec);
      }
      for (int i = 0; i < kRounds; ++i)
        if (!store.save(path)) ::_exit(2);
      ::_exit(0);
    }
    children.push_back(pid);
  }
  for (pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  wisdom::WisdomStore survivor;
  std::string err;
  ASSERT_TRUE(survivor.load(path, &err)) << err;
  EXPECT_EQ(survivor.damagedLines(), 0u);
  EXPECT_EQ(survivor.schemaSkippedLines(), 0u);
  EXPECT_EQ(survivor.size(), static_cast<size_t>(kRecords));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Kill -9, then rerun: the warm cache is the only resume.  Results never
// depend on the cache, so rerunning the whole batch on the cache a killed
// run left behind must end with results identical to an uninterrupted run
// (evaluations included) and a cache holding exactly its evaluations.

TEST(KillRerun, PlainRerunAfterKillNineMatchesUninterruptedRun) {
  const KernelSpec specs[] = {KernelSpec{BlasOp::Dot, ir::Scal::F64},
                              KernelSpec{BlasOp::Copy, ir::Scal::F32},
                              KernelSpec{BlasOp::Asum, ir::Scal::F32}};
  std::vector<KernelJob> jobs;
  for (const KernelSpec& s : specs) jobs.push_back(jobFor(s));
  auto configFor = [](const std::string& cachePath) {
    OrchestratorConfig oc;
    oc.search = smokeConfig(1);
    oc.cachePath = cachePath;
    return oc;
  };

  // The uninterrupted reference run.
  const std::string refCachePath = tmpFile("dist_ref_cache.jsonl");
  std::remove(refCachePath.c_str());
  std::map<std::string, KernelOutcome> reference;
  {
    std::string err;
    Orchestrator orch(arch::p4e(), configFor(refCachePath), &err);
    ASSERT_TRUE(err.empty()) << err;
    BatchOutcome out = orch.tuneAll(jobs);
    ASSERT_EQ(out.failures(), 0);
    for (const auto& k : out.kernels) reference[k.name] = k;
  }
  const std::vector<std::string> refKeys = cacheKeys(refCachePath);

  // Kill point 1: the instant the second kernel completes (a kernel
  // boundary).  Kill point 2: mid-kernel, inside the second kernel's
  // search, right after its DEFAULTS point was cached (the warm-start hook
  // runs exactly then).
  enum class KillAt { KernelBoundary, MidKernel };
  for (KillAt at : {KillAt::KernelBoundary, KillAt::MidKernel}) {
    const bool boundary = at == KillAt::KernelBoundary;
    SCOPED_TRACE(boundary ? "kill at a kernel boundary" : "kill mid-kernel");
    const std::string cachePath = tmpFile("dist_kill_cache.jsonl");
    std::remove(cachePath.c_str());

    pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      std::vector<KernelJob> doomed = jobs;
      if (!boundary)
        doomed[1].warmStartProvider =
            [](const EvalOutcome&) -> std::optional<opt::TuningParams> {
          ::raise(SIGKILL);
          return std::nullopt;
        };
      Orchestrator orch(arch::p4e(), configFor(cachePath));
      int completed = 0;
      (void)orch.tuneAll(doomed, [&](const KernelOutcome&) {
        if (boundary && ++completed == 2) ::raise(SIGKILL);
      });
      ::_exit(7);  // unreachable: the kill must land first
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // The plain rerun: the same batch on the same cache.
    std::string err;
    Orchestrator orch(arch::p4e(), configFor(cachePath), &err);
    ASSERT_TRUE(err.empty()) << err;
    BatchOutcome out = orch.tuneAll(jobs);
    ASSERT_EQ(out.failures(), 0);
    ASSERT_EQ(out.kernels.size(), reference.size());
    for (const KernelOutcome& got : out.kernels) {
      const KernelOutcome& ref = reference.at(got.name);
      EXPECT_EQ(got.result.best, ref.result.best) << got.name;
      EXPECT_EQ(got.result.bestCycles, ref.result.bestCycles) << got.name;
      EXPECT_EQ(got.result.defaultCycles, ref.result.defaultCycles)
          << got.name;
      EXPECT_EQ(got.result.ledger, ref.result.ledger) << got.name;
      EXPECT_EQ(got.result.evaluations, ref.result.evaluations) << got.name;
      EXPECT_EQ(got.result.proposals, ref.result.proposals) << got.name;
      EXPECT_EQ(got.faults.total(), ref.faults.total()) << got.name;
    }
    // The first kernel finished before either kill: nothing re-run.
    EXPECT_EQ(out.kernels[0].evaluationsRun, 0);
    EXPECT_EQ(out.kernels[0].cacheMisses, 0u);

    // Zero duplicate evaluations persisted across kill + rerun, and the
    // cache holds exactly the evaluations the uninterrupted run paid.
    const std::vector<std::string> keys = cacheKeys(cachePath);
    const std::set<std::string> uniqueKeys(keys.begin(), keys.end());
    EXPECT_EQ(uniqueKeys.size(), keys.size())
        << "duplicate evaluations persisted";
    EXPECT_EQ(uniqueKeys,
              std::set<std::string>(refKeys.begin(), refKeys.end()));
    std::remove(cachePath.c_str());
  }
  std::remove(refCachePath.c_str());
}

}  // namespace
}  // namespace ifko::search
