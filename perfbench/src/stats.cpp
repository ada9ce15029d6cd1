#include "stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace pb {

double median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0;
  }
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) {
    return upper;
  }
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lower + upper);
}

std::optional<Tail> tail(std::vector<double> samples) {
  static constexpr std::array<double, 6> kLadder{99.9, 99, 95, 90, 75, 50};
  const std::size_t n = samples.size();
  std::sort(samples.begin(), samples.end());
  for (const double q : kLadder) {
    // Nearest-rank percentile: the smallest rank covering q% of the sample.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(n)));
    if (rank == 0 || rank > n) {
      continue;
    }
    const std::size_t beyond = n - rank;
    if (beyond >= kTailBeyond) {
      return Tail{q, samples[rank - 1], n};
    }
  }
  return std::nullopt;
}

double geomean(std::span<const double> values) {
  if (values.empty()) {
    return 0;
  }
  double logSum = 0;
  for (const double v : values) {
    logSum += std::log(v);
  }
  return std::exp(logSum / static_cast<double>(values.size()));
}

}  // namespace pb
