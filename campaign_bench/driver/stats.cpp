#include "stats.hpp"

#include <algorithm>

namespace campaign_bench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

TailSummary summarize(std::vector<double> samples) {
  TailSummary out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Nearest rank: the p-th percentile is the ceil(p * n / 100)-th smallest
  // sample, and n minus that rank samples lie beyond it.
  auto rankOf = [n](unsigned p) { return (p * n + 99) / 100; };
  out.p50 = samples[rankOf(50) - 1];
  out.value = out.p50;
  for (unsigned p = 99; p >= 50; --p) {
    if (n - rankOf(p) >= kTailSamplesBeyond) {
      out.value = samples[rankOf(p) - 1];
      out.rank = p;
      break;
    }
  }
  return out;
}

}  // namespace campaign_bench
