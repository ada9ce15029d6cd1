#pragma once
// Process-wide counter/gauge/histogram registry and thread-pool load
// accounting (the metrics half of the observability runtime; see
// obs/trace.hpp for the trace rings and the compile/runtime switches).
//
// Metric objects are registered once by name (node-stable references, so
// call sites cache them in a function-local static) and mutated with single
// relaxed atomics on the hot path. While obs::enabled() is false every
// mutator is a load+branch no-op, so instrumentation can stay compiled in.
//
// PoolPhaseStats is fed by par::ThreadPool: every instrumented fork/join
// region accumulates per-worker busy nanoseconds and region wall time under
// the phase label active on the launching thread (PoolPhaseScope). The
// snapshot derives the per-phase load-imbalance ratio (max worker busy /
// mean worker busy) that the paper's Fig. 12 analysis needs.

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace fdd::obs {

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// Monotonic counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (enabled()) {
      v_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins gauge (doubles stored bit-cast in an atomic word).
class Gauge {
 public:
  void set(double v) noexcept {
    if (enabled()) {
      bits_.store(std::bit_cast<std::uint64_t>(v),
                  std::memory_order_relaxed);
    }
  }
  [[nodiscard]] double value() const noexcept {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }
  void reset() noexcept { bits_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> bits_{0};  // bit pattern of +0.0
};

/// Log2-bucketed latency histogram over nanoseconds: bucket b counts values
/// with bit_width(v) == b (bucket 0: v == 0; bucket b: [2^(b-1), 2^b)).
/// Tracks count / sum / min / max exactly; quantiles are estimated from the
/// bucket boundaries (good to a factor of 2, which is what a log-scale
/// latency distribution needs).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t ns) noexcept {
    if (!enabled()) {
      return;
    }
    const unsigned b = static_cast<unsigned>(std::bit_width(ns));  // 0..64
    buckets_[b < kBuckets ? b : kBuckets - 1].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sumNs_.fetch_add(ns, std::memory_order_relaxed);
    atomicMin(minNs_, ns);
    atomicMax(maxNs_, ns);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sumNs() const noexcept {
    return sumNs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t minNs() const noexcept {
    const std::uint64_t v = minNs_.load(std::memory_order_relaxed);
    return v == kNoMin ? 0 : v;
  }
  [[nodiscard]] std::uint64_t maxNs() const noexcept {
    return maxNs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  /// Upper bound of the bucket holding quantile q (0 < q <= 1), in ns.
  [[nodiscard]] std::uint64_t quantileNs(double q) const noexcept;

  void reset() noexcept;

 private:
  static constexpr std::uint64_t kNoMin = ~std::uint64_t{0};

  static void atomicMin(std::atomic<std::uint64_t>& a,
                        std::uint64_t v) noexcept {
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    while (v < cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void atomicMax(std::atomic<std::uint64_t>& a,
                        std::uint64_t v) noexcept {
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    while (v > cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sumNs_{0};
  std::atomic<std::uint64_t> minNs_{kNoMin};
  std::atomic<std::uint64_t> maxNs_{0};
};

// ---------------------------------------------------------------------------
// Thread-pool load accounting
// ---------------------------------------------------------------------------

/// Per-phase accumulator of fork/join regions: per-worker busy time, region
/// count and summed wall time. Workers write their own slot concurrently;
/// region bookkeeping happens on the launching thread between regions.
class PoolPhaseStats {
 public:
  static constexpr unsigned kMaxWorkers = 256;

  explicit PoolPhaseStats(std::string name) : name_{std::move(name)} {}

  /// Stable for the registry's lifetime — usable as a TraceEvent name.
  [[nodiscard]] const char* name() const noexcept { return name_.c_str(); }

  void addBusy(unsigned worker, std::uint64_t ns) noexcept {
    if (worker < kMaxWorkers) {
      busyNs_[worker].fetch_add(ns, std::memory_order_relaxed);
    }
  }
  void addRegion(std::uint64_t wallNs, unsigned workers) noexcept {
    regions_.fetch_add(1, std::memory_order_relaxed);
    wallNs_.fetch_add(wallNs, std::memory_order_relaxed);
    unsigned cur = maxWorkers_.load(std::memory_order_relaxed);
    while (workers > cur && !maxWorkers_.compare_exchange_weak(
                                cur, workers, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t regions() const noexcept {
    return regions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t wallNs() const noexcept {
    return wallNs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] unsigned workers() const noexcept {
    return maxWorkers_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t busyNs(unsigned worker) const noexcept {
    return worker < kMaxWorkers
               ? busyNs_[worker].load(std::memory_order_relaxed)
               : 0;
  }

  void reset() noexcept;

 private:
  std::string name_;
  std::array<std::atomic<std::uint64_t>, kMaxWorkers> busyNs_{};
  std::atomic<std::uint64_t> regions_{0};
  std::atomic<std::uint64_t> wallNs_{0};
  std::atomic<unsigned> maxWorkers_{0};
};

/// Phase label for pool regions launched by the calling thread ("dmav",
/// "conversion", ...). Scoped; restores the previous label (default "pool")
/// on destruction. The pointer must be a literal or interned.
class PoolPhaseScope {
 public:
  explicit PoolPhaseScope(const char* phase) noexcept;
  ~PoolPhaseScope();
  PoolPhaseScope(const PoolPhaseScope&) = delete;
  PoolPhaseScope& operator=(const PoolPhaseScope&) = delete;

 private:
  const char* previous_;
};

[[nodiscard]] const char* currentPoolPhase() noexcept;

/// Interned "pool.busy_us.w<i>" — the per-worker busy counter track name.
[[nodiscard]] const char* workerBusyCounterName(unsigned worker);

// ---------------------------------------------------------------------------
// Snapshot (what the engine folds into RunReport.metrics)
// ---------------------------------------------------------------------------

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sumNs = 0;
  std::uint64_t minNs = 0;
  std::uint64_t maxNs = 0;
  std::uint64_t p50Ns = 0;  // log-bucket upper bounds
  std::uint64_t p99Ns = 0;
  std::vector<std::uint64_t> buckets;  // log2 buckets, trailing zeros trimmed
};

struct PoolPhaseSnapshot {
  std::string phase;
  std::uint64_t regions = 0;
  double wallSeconds = 0;
  std::vector<double> busySeconds;  // one per worker (index = worker id)
  double imbalance = 0;             // max busy / mean busy (1.0 = perfect)
};

struct ObsSnapshot {
  std::vector<CounterSnapshot> counters;    // non-zero only
  std::vector<GaugeSnapshot> gauges;        // non-zero only
  std::vector<HistogramSnapshot> histograms;  // count > 0 only
  std::vector<PoolPhaseSnapshot> poolPhases;  // regions > 0 only
  std::size_t droppedTraceEvents = 0;

  /// Worst (largest) per-phase load-imbalance ratio, 0 when no phases ran.
  [[nodiscard]] double worstImbalance() const noexcept;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

class Registry {
 public:
  static Registry& instance();

  /// Find-or-create by name. References stay valid for the process lifetime;
  /// cache them in a function-local static on hot paths.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);
  PoolPhaseStats& poolPhase(std::string_view name);

  [[nodiscard]] ObsSnapshot snapshot() const;

  /// Zeroes every registered metric (objects and references survive).
  void reset() noexcept;

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace fdd::obs

#if FDD_OBS_ENABLED
/// Bumps the named monotonic counter by 1 (registered once, then one relaxed
/// atomic per hit; no-op while obs is runtime-disabled).
#define FDD_OBS_COUNT(name)                                              \
  do {                                                                   \
    static ::fdd::obs::Counter& FDD_OBS_CONCAT(fddObsCounter_,           \
                                               __LINE__) =              \
        ::fdd::obs::Registry::instance().counter(name);                  \
    FDD_OBS_CONCAT(fddObsCounter_, __LINE__).add(1);                     \
  } while (0)
#define FDD_OBS_COUNT_N(name, n)                                         \
  do {                                                                   \
    static ::fdd::obs::Counter& FDD_OBS_CONCAT(fddObsCounter_,           \
                                               __LINE__) =              \
        ::fdd::obs::Registry::instance().counter(name);                  \
    FDD_OBS_CONCAT(fddObsCounter_, __LINE__).add(n);                     \
  } while (0)
/// Scoped span that additionally records its duration into the log-bucketed
/// latency histogram of the same name.
#define FDD_TIMED_SCOPE(name)                                            \
  static ::fdd::obs::Histogram& FDD_OBS_CONCAT(fddObsHist_, __LINE__) = \
      ::fdd::obs::Registry::instance().histogram(name);                  \
  ::fdd::obs::TraceScope FDD_OBS_CONCAT(fddTraceScope_, __LINE__) {      \
    name, &FDD_OBS_CONCAT(fddObsHist_, __LINE__)                         \
  }
#else
#define FDD_OBS_COUNT(name) ((void)0)
#define FDD_OBS_COUNT_N(name, n) ((void)(n))
#define FDD_TIMED_SCOPE(name) ((void)0)
#endif
