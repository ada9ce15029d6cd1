#pragma once
// Per-thread lock-free trace rings (the tracing half of the observability
// runtime; see obs/metrics.hpp for the counter/histogram registry).
//
// Each thread that records an event owns a fixed-capacity ring of POD
// TraceEvents: the write path is one relaxed-load enabled check, a steady-
// clock read, and a store into the thread's own ring — no locks, no
// allocation, no sharing. Overflow overwrites the oldest events (flight-
// recorder semantics) and counts the drops. A global registry keeps every
// ring alive past thread exit so exportChromeTrace() can serialize the whole
// process into Chrome trace-event JSON (loadable by Perfetto / chrome://
// tracing).
//
// Two switches gate the cost:
//   * FDD_OBS_ENABLED — compile-time master switch (CMake option FLATDD_OBS,
//     default ON). When 0, the FDD_TRACE_* macros compile to nothing and the
//     entry points collapse to inline no-ops.
//   * obs::setEnabled(true) — runtime switch. While off, an instrumented
//     call site costs one relaxed atomic load and a predictable branch
//     (benchmarked in bench/kernels.cpp, "obs" section: < 2% on a 4096-
//     amplitude kernel, i.e. noise).
//
// Export must be called from a quiescent point (no concurrent writers): the
// rings are single-writer/single-reader without event-level synchronization.
// The engine and CLI flush after simulate() returns and after stopping the
// RSS sampler, which satisfies this by construction.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#ifndef FDD_OBS_ENABLED
#define FDD_OBS_ENABLED 1
#endif

namespace fdd::obs {

enum class EventType : std::uint8_t {
  Span,     // Chrome "X": name + start + duration
  Counter,  // Chrome "C": name + value at a time point
  Instant,  // Chrome "i": name + up to (value, value2, aux) args
};

/// One recorded event. POD; `name` must be a string literal or a pointer
/// obtained from internName() (the ring stores the pointer, not a copy).
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t startNs = 0;  // ns since the process trace epoch
  std::uint64_t durNs = 0;    // Span only
  double value = 0;           // Counter value / first Instant arg
  double value2 = 0;          // second Instant arg
  std::uint64_t aux = 0;      // third Instant arg (e.g. a gate index)
  std::uint32_t tid = 0;      // small sequential logical thread id
  EventType type = EventType::Span;
};

class Histogram;  // obs/metrics.hpp

#if FDD_OBS_ENABLED

namespace detail {
extern std::atomic<bool> gEnabled;
}

/// Runtime master switch for both tracing and metrics recording.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::gEnabled.load(std::memory_order_relaxed);
}
void setEnabled(bool on) noexcept;

/// Nanoseconds since the process trace epoch (first clock use).
[[nodiscard]] std::uint64_t nowNs() noexcept;

/// Logical id of the calling thread (assigned lazily, 1-based).
[[nodiscard]] std::uint32_t currentThreadId();

/// Labels the calling thread in the exported trace ("main", "pool.worker-3").
/// The pointer must stay valid forever (literal or internName()).
void setThreadName(const char* name) noexcept;

/// Copies `name` into process-lifetime storage and returns a stable pointer;
/// repeated calls with the same string return the same pointer. Use for
/// dynamically built event names (e.g. per-worker counter tracks).
[[nodiscard]] const char* internName(const std::string& name);

/// Request context: a thread-local id stamped onto every span the thread
/// records while the scope is alive, so one service request is followable
/// end-to-end (protocol -> queue -> session -> DD/DMAV spans) in Perfetto
/// and groupable by `trace_summarize --by-request`. 0 means "no request".
[[nodiscard]] std::uint64_t currentRequestId() noexcept;
void setCurrentRequestId(std::uint64_t id) noexcept;

/// RAII request-context scope: sets the calling thread's request id and
/// restores the previous one on destruction (scopes nest).
class RequestIdScope {
 public:
  explicit RequestIdScope(std::uint64_t id) noexcept
      : previous_{currentRequestId()} {
    setCurrentRequestId(id);
  }
  ~RequestIdScope() { setCurrentRequestId(previous_); }
  RequestIdScope(const RequestIdScope&) = delete;
  RequestIdScope& operator=(const RequestIdScope&) = delete;

 private:
  std::uint64_t previous_;
};

/// Raw event entry points. All are no-ops while !enabled().
/// `requestId` defaults to the calling thread's current request context;
/// pass an explicit id to attribute a span recorded on another thread's
/// behalf (e.g. the queue-wait span recorded by the worker that dequeues).
void recordSpan(const char* name, std::uint64_t startNs,
                std::uint64_t durNs) noexcept;
void recordSpan(const char* name, std::uint64_t startNs, std::uint64_t durNs,
                std::uint64_t requestId) noexcept;
void counterEvent(const char* name, double value) noexcept;
void instantEvent(const char* name, double value, double value2 = 0,
                  std::uint64_t aux = 0) noexcept;

/// Capacity (in events) of rings created after this call; existing rings
/// keep their size. Default 16384 (~0.9 MB per recording thread).
void setRingCapacity(std::size_t events) noexcept;

/// Total events overwritten by ring wraparound, across all rings.
[[nodiscard]] std::size_t droppedEvents() noexcept;

/// Drops all recorded events (rings stay registered). Quiescence required.
void clearTrace() noexcept;

/// Serializes every ring into one Chrome trace-event JSON document
/// ({"traceEvents":[...], ...}); Perfetto and chrome://tracing load it
/// directly. Quiescence required.
[[nodiscard]] std::string exportChromeTrace();

/// Flight-recorder export for a *live* process (GET /tracez): reads the
/// rings while writers keep recording, without pausing them. Events that
/// could have been overwritten during the copy are dropped (the ring head
/// is re-read after the copy and the overtaken prefix discarded), so the
/// result is a consistent recent window rather than an exact snapshot.
/// Reading a slot concurrently with its single writer is a benign torn
/// read by design — do not call this under TSan with active writers.
[[nodiscard]] std::string exportChromeTraceLive();

/// RAII span: measures from construction to destruction and records a Span
/// event on the calling thread's ring (plus, optionally, the duration into a
/// log-bucketed latency histogram). Inactive and free when !enabled() at
/// construction.
class TraceScope {
 public:
  explicit TraceScope(const char* name, Histogram* hist = nullptr) noexcept {
    if (enabled()) {
      name_ = name;
      hist_ = hist;
      start_ = nowNs();
    }
  }
  ~TraceScope() {
    if (name_ != nullptr) {
      finish();
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  void finish() noexcept;

  const char* name_ = nullptr;
  Histogram* hist_ = nullptr;
  std::uint64_t start_ = 0;
};

#else  // !FDD_OBS_ENABLED — every entry point collapses to an inline no-op.

[[nodiscard]] constexpr bool enabled() noexcept { return false; }
inline void setEnabled(bool) noexcept {}
[[nodiscard]] inline std::uint64_t nowNs() noexcept { return 0; }
[[nodiscard]] inline std::uint32_t currentThreadId() { return 0; }
inline void setThreadName(const char*) noexcept {}
[[nodiscard]] inline const char* internName(const std::string&) {
  return "";
}
[[nodiscard]] inline std::uint64_t currentRequestId() noexcept { return 0; }
inline void setCurrentRequestId(std::uint64_t) noexcept {}

class RequestIdScope {
 public:
  explicit RequestIdScope(std::uint64_t) noexcept {}
  RequestIdScope(const RequestIdScope&) = delete;
  RequestIdScope& operator=(const RequestIdScope&) = delete;
};

inline void recordSpan(const char*, std::uint64_t, std::uint64_t) noexcept {}
inline void recordSpan(const char*, std::uint64_t, std::uint64_t,
                       std::uint64_t) noexcept {}
inline void counterEvent(const char*, double) noexcept {}
inline void instantEvent(const char*, double, double = 0,
                         std::uint64_t = 0) noexcept {}
inline void setRingCapacity(std::size_t) noexcept {}
[[nodiscard]] inline std::size_t droppedEvents() noexcept { return 0; }
inline void clearTrace() noexcept {}
[[nodiscard]] inline std::string exportChromeTrace() {
  return R"({"traceEvents":[]})";
}
[[nodiscard]] inline std::string exportChromeTraceLive() {
  return R"({"traceEvents":[]})";
}

class TraceScope {
 public:
  explicit TraceScope(const char*, Histogram* = nullptr) noexcept {}
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
};

#endif  // FDD_OBS_ENABLED

}  // namespace fdd::obs

#define FDD_OBS_CONCAT_(a, b) a##b
#define FDD_OBS_CONCAT(a, b) FDD_OBS_CONCAT_(a, b)

#if FDD_OBS_ENABLED
/// Scoped trace span: FDD_TRACE_SCOPE("dmav"); records a Span event
/// covering the enclosing scope when tracing is enabled.
#define FDD_TRACE_SCOPE(name) \
  ::fdd::obs::TraceScope FDD_OBS_CONCAT(fddTraceScope_, __LINE__) { name }
#else
#define FDD_TRACE_SCOPE(name) ((void)0)
#endif
