// Shared plumbing of the benchmark: command-line options, the result every
// workload fills in, the golden-output snapshot, and host facts.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workDir;        ///< scratch files of this run (removed after)
  std::string goldenPath;     ///< this workload's golden snapshot
  std::string spansPath;      ///< where a traced run writes its spans
  bool writeGolden = false;   ///< record the snapshot instead of checking it
};

/// What one run measured.  Metrics keep insertion order.
class Outcome {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Counts one failed operation and says why on stderr.
  void fail(const std::string& why);
  void attempt(int64_t n = 1) { attempted_ += n; }
  /// Prints a human-readable report line (stdout, '#'-prefixed).
  static void note(const std::string& line);
  /// Prints a timing summary line: median, supported tail, sample count.
  static void noteTiming(const std::string& what, const std::string& unit,
                         const std::vector<double>& samples);

  [[nodiscard]] bool correct() const { return failed_ == 0; }
  [[nodiscard]] int64_t failed() const { return failed_; }
  /// The result line: {"correct","attempted","failed","metrics"}.
  [[nodiscard]] std::string json() const;

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Golden snapshot: one JSON object of string fields per line, keyed by its
/// "key" field.  Values are compared as exact strings.
class Golden {
 public:
  using Fields = std::map<std::string, std::string>;

  /// Loads `path`.  False with *error when it is missing or damaged.
  bool load(const std::string& path, std::string* error);
  bool save(const std::string& path) const;

  /// Records (write mode) or checks `fields` against the snapshot; a
  /// mismatch or a missing key is counted on `out`.
  void check(const std::string& key, const Fields& fields, bool write,
             Outcome& out);

  /// Counts on `out` every snapshot record, other than those in `except`,
  /// that no check() visited since the last call, so an output that drops
  /// out of a run fails it.  Does nothing in write mode.
  void requireVisited(const std::set<std::string>& except, bool write,
                      Outcome& out);

  /// Sum of integer field `field` over the records that have it, other
  /// than those in `except`.
  [[nodiscard]] int64_t sum(const std::string& field,
                            const std::set<std::string>& except) const;

 private:
  std::map<std::string, Fields> records_;
  std::set<std::string> visited_;
};

/// Seconds elapsed since `t0`.
[[nodiscard]] inline double since(
    std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Peak resident set of this process, in MB.
[[nodiscard]] double peakRssMb();
/// User + system CPU time of this process so far, in seconds.
[[nodiscard]] double cpuSeconds();
/// Minor page faults of this process so far.
[[nodiscard]] int64_t minorFaults();
/// Online processors.
[[nodiscard]] int hostThreads();
/// CPU model string (from CPUID where available).
[[nodiscard]] std::string cpuModel();

/// Deterministic Fisher-Yates shuffle (std::shuffle's algorithm is left to
/// the library; this one is the same everywhere).
template <typename T>
void seededShuffle(std::vector<T>& v, ifko::SplitMix64& rng) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

/// Workload entry points (tune.cpp, serve.cpp).
[[nodiscard]] bool isTuneWorkload(const std::string& name);
Outcome runTuneWorkload(const Options& o);
Outcome runServeWorkload(const Options& o);

}  // namespace perfbench
