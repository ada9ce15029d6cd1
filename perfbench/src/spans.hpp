#pragma once
// The traced run's own spans: one per public call the benchmark makes
// (engine begin/apply, backend sample, one protocol request), kept in memory
// and written at exit as Chrome trace-event JSON that tools/trace_summarize
// reads (`--by-request` groups the spans of one circuit or request by id).

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsBetween(Clock::time_point a,
                                           Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name = "";  // static string: a layer boundary name
  std::uint64_t id = 0;   // circuit or request id shared by related spans
  Clock::time_point start;
  Clock::time_point end;
  std::uint32_t tid = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_{enabled} {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Records one finished span (thread-safe; no-op when disabled).
  void record(const char* name, std::uint64_t id, Clock::time_point start,
              Clock::time_point end);

  /// Writes every span as a complete ("X") trace event; false on I/O error.
  [[nodiscard]] bool writeChromeTrace(const std::string& path) const;

  [[nodiscard]] std::size_t size() const;

 private:
  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace pb
