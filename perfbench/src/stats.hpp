#pragma once
// Order statistics shared by every workload: medians, the reported tail and
// geometric means over circuit families.

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace pb {

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> samples);

/// The reported tail: the highest percentile of a fixed ladder
/// (99.9, 99, 95, 90, 75, 50) that still has at least ten samples ranked
/// beyond it, with its nearest-rank value and the sample count. Empty when
/// the sample is too small for even the median to qualify (< 20 samples).
struct Tail {
  double percentile = 0;
  double value = 0;
  std::size_t samples = 0;
};
[[nodiscard]] std::optional<Tail> tail(std::vector<double> samples);

/// Minimum number of samples ranked beyond a reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// Geometric mean of strictly positive values; 0 when `values` is empty.
[[nodiscard]] double geomean(std::span<const double> values);

}  // namespace pb
