// Sample statistics used by every reported figure: nearest-rank
// percentiles over raw samples and interpolated percentiles over the
// substrate's bucketed obs histograms.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it. p in (0, 100]; 0 for an empty set.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50);
}

inline double max_of(const std::vector<double>& samples) {
  return samples.empty() ? 0
                         : *std::max_element(samples.begin(), samples.end());
}

inline double mean_of(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

// a / b, 0 when b is 0 (a layer that did no work reports 0, not NaN).
inline double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// Percentile of a bucketed histogram, interpolating linearly inside the
// bucket that holds the rank (the first bucket starts at 0; the overflow
// bucket reports its lower bound).
inline double histogram_percentile(const p2p::obs::HistogramValue& h,
                                   double p) {
  if (h.count == 0 || h.counts.empty()) return 0;
  const double rank = p / 100.0 * static_cast<double>(h.count);
  double seen = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const auto in_bucket = static_cast<double>(h.counts[i]);
    if (in_bucket > 0 && seen + in_bucket >= rank) {
      const double lo = i == 0 ? 0 : h.bounds[i - 1];
      if (i >= h.bounds.size()) return lo;
      return lo + (h.bounds[i] - lo) * (rank - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return h.bounds.empty() ? 0 : h.bounds.back();
}

}  // namespace perfbench
