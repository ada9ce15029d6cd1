#pragma once
// Structured slow-request log: one JSON object per line (JSONL), appended to
// a configured file whenever a request's total latency crosses
// ServiceConfig::slowRequestMs, plus out-of-band "stall" events from the
// watchdog (those bypass the threshold — a stalled job is interesting no
// matter how long it has run so far).
//
// Each entry carries enough to diagnose a slow request without a trace:
// the op, session, request id (joinable against trace spans and the
// protocol response), the queue-wait vs execute split, gates applied so
// far, the DMAV plans this request replayed from the session's plan cache,
// and the SIMD dispatch tier.
//
// Writes are rate-limited by a token bucket (`maxPerSec`, refilled
// continuously) so a pathological burst — every request slow — degrades to
// a bounded log instead of an unbounded disk write amplifier. Suppressed
// and written entries are counted in the obs registry
// (`service.slow_log_written` / `service.slow_log_suppressed`).
//
// A default-constructed or unconfigured log (empty path) is disabled:
// record() is a cheap early-out, so call sites don't need their own guard.

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>

namespace fdd::svc {

struct SlowLogEntry {
  std::string event = "slow_request";  // or "stall"
  std::string op;                      // protocol op ("apply", "sample", ...)
  std::uint64_t requestId = 0;
  std::uint64_t sessionId = 0;
  double queueWaitMs = 0;
  double executeMs = 0;
  double totalMs = 0;
  std::uint64_t gatesApplied = 0;
  std::uint64_t planCacheHits = 0;  // this request's own
  std::string simdTier;
  std::string state;  // job terminal state, or "running" for stalls
};

class SlowRequestLog {
 public:
  SlowRequestLog() = default;
  /// `path` empty disables the log entirely. `thresholdMs` <= 0 logs every
  /// request (useful in CI smoke tests). `maxPerSec` bounds the write rate.
  SlowRequestLog(std::string path, double thresholdMs, double maxPerSec);

  SlowRequestLog(const SlowRequestLog&) = delete;
  SlowRequestLog& operator=(const SlowRequestLog&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return !path_.empty(); }
  [[nodiscard]] double thresholdMs() const noexcept { return thresholdMs_; }

  /// Appends the entry if the log is enabled, the entry qualifies (total
  /// latency over threshold, or a non-"slow_request" event type), and the
  /// rate limiter has budget. Thread-safe. Returns true when written.
  bool record(const SlowLogEntry& entry);

  [[nodiscard]] std::uint64_t written() const noexcept;
  [[nodiscard]] std::uint64_t suppressed() const noexcept;

 private:
  std::string path_;
  double thresholdMs_ = 0;
  double maxPerSec_ = 0;

  mutable std::mutex mutex_;
  std::ofstream out_;
  double tokens_ = 0;
  std::uint64_t lastRefillNs_ = 0;
  std::uint64_t written_ = 0;
  std::uint64_t suppressed_ = 0;
};

}  // namespace fdd::svc
