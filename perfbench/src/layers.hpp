#pragma once
// Per-layer attribution shared by every workload: the RunReport phase
// fields and counters summed over a traced run's circuits (batch) or
// sessions (serve), the dd.* and flatdd.* metrics computed from them, and
// the rows of the printed layer budget.

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/run_report.hpp"

namespace pb {

/// `num / den`, or 0 when `den` is not positive.
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0;
}

struct LayerSums {
  double pipeline = 0, dd = 0, conversion = 0, reorder = 0, fusion = 0,
         compile = 0, replay = 0, dmavOther = 0;
  std::size_t reports = 0, converted = 0, ddGates = 0, dmavGates = 0,
              diagRunGates = 0, planHits = 0, planMisses = 0,
              planCompiles = 0;
  double conversionGateFrac = 0;  // summed over converted reports
  double replayBytes = 0;         // dmavGates * 2^n * 32 B, computed
  double accountedBytes = 0;      // max memoryBytes
  std::size_t peakNodes = 0;      // max peakDDSize
  std::vector<double> conversionSeconds;

  void add(const fdd::engine::RunReport& r);

  /// Engine time the phase fields account for.
  [[nodiscard]] double phases() const;

  /// The phase rows of a layer budget, in pipeline order.
  [[nodiscard]] std::vector<std::pair<const char*, double>> rows() const;
};

/// Stores the dd.* and flatdd.* per-layer metrics; the shares are of
/// `opTime`, the op time of the run's timed calls.
void putLayerMetrics(std::map<std::string, double>& metrics,
                     const LayerSums& sums, double opTime);

/// Appends a budget table to `notes`: one line per row with its share of
/// `total`, then a "(not covered)" row with what the rows leave out.
void putBudget(std::vector<std::string>& notes, const std::string& title,
               const std::vector<std::pair<const char*, double>>& rows,
               double total);

}  // namespace pb
