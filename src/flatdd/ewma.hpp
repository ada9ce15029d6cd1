#pragma once
// Conversion-timing monitor (Section 3.1.1): an exponentially weighted moving
// average of the state vector's DD size. When the current size s_i spikes
// above epsilon times the (bias-corrected) average, the state's regularity
// has collapsed and the simulation should convert from DD to DMAV.

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace fdd::flat {

/// Ticks an attached log keeps. A service session can run in the DD phase
/// for its whole life with obs on, and every report copies the log, so an
/// unbounded log would grow with every gate; only the newest ticks are kept.
/// The tick that triggers conversion is the last one, so it always stays.
inline constexpr std::size_t kEwmaLogCapacity = 1024;

/// One monitor tick: everything needed to audit the conversion decision
/// after the run (surfaced as RunReport.ewmaLog and as trace instants).
struct EwmaDecision {
  std::size_t gate = 0;     // observation index (0-based)
  std::size_t ddSize = 0;   // observed state-DD node count s_i
  fp ewma = 0;              // bias-corrected EWMA v_i after this observation
  fp threshold = 0;         // epsilon * v_i; triggers when s_i exceeds it
  bool triggered = false;   // Eq. 4 fired (warmup and minSize permitting)
};

class EwmaMonitor {
 public:
  /// beta: history weight of Eq. 4 (paper default 0.9).
  /// epsilon: trigger threshold (paper default 2).
  /// warmupGates: observations before conversion may trigger; with v_0 = 0
  ///   the raw EWMA underestimates wildly for the first ~1/(1-beta) gates,
  ///   so we both bias-correct (v / (1 - beta^i)) and require a warmup.
  /// minSize: DD sizes below this never trigger — converting a tiny DD to a
  ///   2^n array can only lose.
  EwmaMonitor(fp beta = 0.9, fp epsilon = 2.0, std::size_t warmupGates = 8,
              std::size_t minSize = 64);

  /// Records the DD size after gate i and returns true when the simulation
  /// should convert to DMAV (Eq. 4 check: epsilon * v_i < s_i).
  [[nodiscard]] bool observe(std::size_t ddSize);

  [[nodiscard]] fp value() const noexcept { return corrected_; }
  [[nodiscard]] std::size_t observations() const noexcept { return count_; }
  [[nodiscard]] fp beta() const noexcept { return beta_; }
  [[nodiscard]] fp epsilon() const noexcept { return epsilon_; }

  /// Appends one EwmaDecision per observe() to `log` (nullptr detaches),
  /// dropping the oldest beyond kEwmaLogCapacity. Recording is further gated
  /// on obs::enabled(), so an attached log is free while observability is
  /// off. The pointee must outlive the monitor or the next attachLog call.
  void attachLog(std::vector<EwmaDecision>* log) noexcept { log_ = log; }

  void reset() noexcept;

 private:
  fp beta_;
  fp epsilon_;
  std::size_t warmup_;
  std::size_t minSize_;

  fp value_ = 0;         // raw EWMA v_i
  fp corrected_ = 0;     // bias-corrected v_i / (1 - beta^i)
  fp betaPow_ = 1;       // beta^i
  std::size_t count_ = 0;
  std::vector<EwmaDecision>* log_ = nullptr;
};

}  // namespace fdd::flat
