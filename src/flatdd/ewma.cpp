#include "flatdd/ewma.hpp"

#include <stdexcept>

#include "obs/trace.hpp"

namespace fdd::flat {

EwmaMonitor::EwmaMonitor(fp beta, fp epsilon, std::size_t warmupGates,
                         std::size_t minSize)
    : beta_{beta}, epsilon_{epsilon}, warmup_{warmupGates}, minSize_{minSize} {
  if (beta <= 0 || beta >= 1) {
    throw std::invalid_argument("EwmaMonitor: beta must be in (0, 1)");
  }
  if (epsilon <= 0) {
    throw std::invalid_argument("EwmaMonitor: epsilon must be positive");
  }
}

bool EwmaMonitor::observe(std::size_t ddSize) {
  const fp s = static_cast<fp>(ddSize);
  value_ = beta_ * value_ + (1 - beta_) * s;  // Eq. 4
  betaPow_ *= beta_;
  ++count_;
  corrected_ = value_ / (1 - betaPow_);
  const bool eligible = count_ > warmup_ && ddSize >= minSize_;
  const bool triggered = eligible && epsilon_ * corrected_ < s;
  if (log_ != nullptr && obs::enabled()) {
    if (log_->size() >= kEwmaLogCapacity) {
      log_->erase(log_->begin());
    }
    log_->push_back(EwmaDecision{count_ - 1, ddSize, corrected_,
                                 epsilon_ * corrected_, triggered});
  }
  return triggered;
}

void EwmaMonitor::reset() noexcept {
  value_ = 0;
  corrected_ = 0;
  betaPow_ = 1;
  count_ = 0;
}

}  // namespace fdd::flat
