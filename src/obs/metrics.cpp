#include "obs/metrics.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

namespace fdd::obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

std::uint64_t Histogram::quantileNs(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) {
    return 0;
  }
  const std::uint64_t rank = static_cast<std::uint64_t>(
      q * static_cast<double>(total - 1));  // 0-based
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += bucket(b);
    if (seen > rank) {
      // Upper bound of bucket b: values v with bit_width(v) == b.
      return b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
    }
  }
  return maxNs();
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sumNs_.store(0, std::memory_order_relaxed);
  minNs_.store(kNoMin, std::memory_order_relaxed);
  maxNs_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Pool phase bookkeeping
// ---------------------------------------------------------------------------

void PoolPhaseStats::reset() noexcept {
  for (auto& b : busyNs_) {
    b.store(0, std::memory_order_relaxed);
  }
  regions_.store(0, std::memory_order_relaxed);
  wallNs_.store(0, std::memory_order_relaxed);
  maxWorkers_.store(0, std::memory_order_relaxed);
}

namespace {
constexpr const char* kDefaultPoolPhase = "pool";
thread_local const char* tlsPoolPhase = kDefaultPoolPhase;
}  // namespace

PoolPhaseScope::PoolPhaseScope(const char* phase) noexcept
    : previous_{tlsPoolPhase} {
  tlsPoolPhase = phase;
}

PoolPhaseScope::~PoolPhaseScope() { tlsPoolPhase = previous_; }

const char* currentPoolPhase() noexcept { return tlsPoolPhase; }

const char* workerBusyCounterName(unsigned worker) {
  static std::mutex mutex;
  static std::vector<const char*> names;
  std::lock_guard lock{mutex};
  while (names.size() <= worker) {
    names.push_back(
        internName("pool.busy_us.w" + std::to_string(names.size())));
  }
  return names[worker];
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct Registry::Impl {
  mutable std::mutex mutex;
  // Node-based maps: element addresses are stable across inserts, which is
  // what lets call sites cache references in function-local statics.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
  std::map<std::string, std::unique_ptr<PoolPhaseStats>, std::less<>> phases;
};

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Registry::Impl& Registry::impl() const {
  // Deliberately leaked: worker threads may bump a cached Counter& while
  // main's static destructors run, so the instruments must never die.
  static auto* impl = new Impl;
  return *impl;
}

namespace {

template <typename Map, typename... Args>
auto& findOrCreate(std::mutex& mutex, Map& map, std::string_view name,
                   Args&&... args) {
  std::lock_guard lock{mutex};
  if (const auto it = map.find(name); it != map.end()) {
    return *it->second;
  }
  auto& slot = map[std::string{name}];
  slot = std::make_unique<typename Map::mapped_type::element_type>(
      std::forward<Args>(args)...);
  return *slot;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  auto& i = impl();
  return findOrCreate(i.mutex, i.counters, name);
}

Gauge& Registry::gauge(std::string_view name) {
  auto& i = impl();
  return findOrCreate(i.mutex, i.gauges, name);
}

Histogram& Registry::histogram(std::string_view name) {
  auto& i = impl();
  return findOrCreate(i.mutex, i.histograms, name);
}

PoolPhaseStats& Registry::poolPhase(std::string_view name) {
  auto& i = impl();
  return findOrCreate(i.mutex, i.phases, name, std::string{name});
}

ObsSnapshot Registry::snapshot() const {
  auto& i = impl();
  std::lock_guard lock{i.mutex};
  ObsSnapshot snap;
  for (const auto& [name, c] : i.counters) {
    if (c->value() != 0) {
      snap.counters.push_back(CounterSnapshot{name, c->value()});
    }
  }
  for (const auto& [name, g] : i.gauges) {
    if (g->value() != 0) {
      snap.gauges.push_back(GaugeSnapshot{name, g->value()});
    }
  }
  for (const auto& [name, h] : i.histograms) {
    if (h->count() == 0) {
      continue;
    }
    HistogramSnapshot hs;
    hs.name = name;
    hs.sumNs = h->sumNs();
    hs.minNs = h->minNs();
    hs.maxNs = h->maxNs();
    hs.p50Ns = h->quantileNs(0.50);
    hs.p99Ns = h->quantileNs(0.99);
    // Read each bucket once and take the count from those same reads, so a
    // record() racing the snapshot cannot leave the total (the exposition's
    // le="+Inf" bucket) below the last cumulative bucket.
    hs.buckets.resize(Histogram::kBuckets);
    std::size_t top = 0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      hs.buckets[b] = h->bucket(b);
      hs.count += hs.buckets[b];
      if (hs.buckets[b] != 0) {
        top = b + 1;
      }
    }
    hs.buckets.resize(top);
    snap.histograms.push_back(std::move(hs));
  }
  for (const auto& [name, p] : i.phases) {
    if (p->regions() == 0) {
      continue;
    }
    PoolPhaseSnapshot ps;
    ps.phase = name;
    ps.regions = p->regions();
    ps.wallSeconds = static_cast<double>(p->wallNs()) / 1e9;
    const unsigned workers = std::min(p->workers(),
                                      PoolPhaseStats::kMaxWorkers);
    double maxBusy = 0;
    double sumBusy = 0;
    ps.busySeconds.reserve(workers);
    for (unsigned wkr = 0; wkr < workers; ++wkr) {
      const double busy = static_cast<double>(p->busyNs(wkr)) / 1e9;
      ps.busySeconds.push_back(busy);
      maxBusy = std::max(maxBusy, busy);
      sumBusy += busy;
    }
    const double meanBusy =
        workers > 0 ? sumBusy / static_cast<double>(workers) : 0;
    ps.imbalance = meanBusy > 0 ? maxBusy / meanBusy : 0;
    snap.poolPhases.push_back(std::move(ps));
  }
  snap.droppedTraceEvents = droppedEvents();
  return snap;
}

void Registry::reset() noexcept {
  auto& i = impl();
  std::lock_guard lock{i.mutex};
  for (const auto& [name, c] : i.counters) {
    c->reset();
  }
  for (const auto& [name, g] : i.gauges) {
    g->reset();
  }
  for (const auto& [name, h] : i.histograms) {
    h->reset();
  }
  for (const auto& [name, p] : i.phases) {
    p->reset();
  }
}

double ObsSnapshot::worstImbalance() const noexcept {
  double worst = 0;
  for (const auto& p : poolPhases) {
    worst = std::max(worst, p.imbalance);
  }
  return worst;
}

}  // namespace fdd::obs
