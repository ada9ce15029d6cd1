#include "service/slow_log.hpp"

#include <chrono>

#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace fdd::svc {

namespace {

std::uint64_t monotonicNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t wallMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

SlowRequestLog::SlowRequestLog(std::string path, double thresholdMs,
                               double maxPerSec)
    : path_{std::move(path)},
      thresholdMs_{thresholdMs},
      maxPerSec_{maxPerSec > 0 ? maxPerSec : 1} {
  if (!path_.empty()) {
    out_.open(path_, std::ios::app);
    if (!out_) {
      path_.clear();  // unwritable path -> disabled, not a crash loop
    }
  }
  tokens_ = maxPerSec_;  // full initial burst
  lastRefillNs_ = monotonicNs();
}

bool SlowRequestLog::record(const SlowLogEntry& entry) {
  if (path_.empty()) {
    return false;
  }
  if (entry.event == "slow_request" && entry.totalMs < thresholdMs_) {
    return false;
  }

  // Serialize outside the lock; only the token check and the write are
  // mutually exclusive.
  json::Writer w;
  w.beginObject();
  w.field("event", entry.event);
  w.field("ts_us", wallMicros());
  w.field("op", entry.op);
  // Decimal string: request ids are u64 and JSON numbers are doubles.
  w.field("request_id", std::to_string(entry.requestId));
  w.field("session", entry.sessionId);
  w.field("queue_wait_ms", entry.queueWaitMs);
  w.field("exec_ms", entry.executeMs);
  w.field("total_ms", entry.totalMs);
  w.field("gates", entry.gatesApplied);
  w.field("simd_tier", entry.simdTier);
  w.field("state", entry.state);
  w.endObject();
  const std::string line = w.take();

  {
    const std::lock_guard lock{mutex_};
    const std::uint64_t now = monotonicNs();
    tokens_ += static_cast<double>(now - lastRefillNs_) * 1e-9 * maxPerSec_;
    if (tokens_ > maxPerSec_) {
      tokens_ = maxPerSec_;  // burst cap == one second of budget
    }
    lastRefillNs_ = now;
    if (tokens_ < 1.0) {
      ++suppressed_;
      obs::Registry::instance().counter("service.slow_log_suppressed").add(1);
      return false;
    }
    tokens_ -= 1.0;
    out_ << line << '\n';
    out_.flush();
    ++written_;
  }
  obs::Registry::instance().counter("service.slow_log_written").add(1);
  return true;
}

std::uint64_t SlowRequestLog::written() const noexcept {
  const std::lock_guard lock{mutex_};
  return written_;
}

std::uint64_t SlowRequestLog::suppressed() const noexcept {
  const std::lock_guard lock{mutex_};
  return suppressed_;
}

}  // namespace fdd::svc
