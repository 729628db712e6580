#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

size_t nearestRank(double p, size_t n) {
  // The epsilon keeps exact products (99% of 1000 = 990) from rounding up.
  const double exact = p / 100.0 * static_cast<double>(n);
  const auto rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

bool tailSupported(double p, size_t n) {
  return n > 0 && n - nearestRank(p, n) >= kTailSupport;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t k = nearestRank(p, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(k),
                   samples.end());
  return samples[k];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double logSum = 0.0;
  for (double v : values) logSum += std::log(v);
  return std::exp(logSum / static_cast<double>(values.size()));
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.p50 = median(samples);
  for (double level : kLadder) {
    if (tailSupported(level, s.count)) {
      s.tailLevel = level;
      s.tail = percentile(samples, level);
      break;
    }
  }
  return s;
}

}  // namespace perfbench
