// Percentile selection for the benchmark's timings.
//
// Every timing is reported as its median plus the highest percentile of a
// fixed ladder that still has at least ten samples strictly beyond it, with
// the sample count — so a tail figure never rests on one or two outliers.
// Percentiles use the nearest-rank definition: the p-th percentile of n
// sorted samples is the sample at 1-based rank ceil(p/100 * n).
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must have strictly beyond it.
inline constexpr size_t kTailSupport = 10;

/// The percentile ladder, highest first.
inline constexpr double kLadder[] = {99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0};

/// 1-based nearest rank of percentile `p` over `n` samples (n >= 1).
[[nodiscard]] size_t nearestRank(double p, size_t n);

/// Whether percentile `p` over `n` samples has kTailSupport samples beyond.
[[nodiscard]] bool tailSupported(double p, size_t n);

/// Nearest-rank percentile of `samples` (any order); 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Median (the nearest-rank 50th percentile); 0 when empty.
[[nodiscard]] double median(std::vector<double> samples);

/// Geometric mean of positive values; 0 when empty.
[[nodiscard]] double geomean(const std::vector<double>& values);

struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  /// Highest ladder level with kTailSupport samples beyond it; 0 when even
  /// the median lacks that support (fewer than 20 samples).
  double tailLevel = 0.0;
  double tail = 0.0;
};

[[nodiscard]] Summary summarize(const std::vector<double>& samples);

}  // namespace perfbench
