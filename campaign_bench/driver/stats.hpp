// Summary statistics for the campaign benchmark's timing samples.
#pragma once

#include <cstddef>
#include <vector>

namespace campaign_bench {

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for an empty sample.
double median(std::vector<double> samples);

/// A timing distribution summarised by its median and its tail percentile.
struct TailSummary {
  double p50 = 0;
  /// The tail percentile: the highest integer percentile p in [50, 99]
  /// whose nearest-rank value has at least ten samples beyond it. With
  /// fewer than 20 samples no percentile qualifies; `value` then repeats the
  /// median and `rank` is 0.
  double value = 0;
  unsigned rank = 0;
  std::size_t samples = 0;
};

/// Samples needed beyond a percentile before it may be reported.
inline constexpr std::size_t kTailSamplesBeyond = 10;

TailSummary summarize(std::vector<double> samples);

}  // namespace campaign_bench
