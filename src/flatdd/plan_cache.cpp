#include "flatdd/plan_cache.hpp"

#include <bit>
#include <cassert>
#include <utility>

#include "dd/package.hpp"
#include "obs/metrics.hpp"

namespace fdd::flat {

namespace {

inline void hashCombine(std::size_t& seed, std::size_t v) noexcept {
  seed ^= v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// Applies `f` to every gate root a plan's cache entry pinned: the primary
/// root plus the extra roots of a fused run.
template <typename F>
void forEachPlanRoot(const DmavPlan& plan, F&& f) {
  f(dd::mEdge{const_cast<dd::mNode*>(plan.root), plan.rootWeight});
  for (const auto& [node, weight] : plan.extraRoots) {
    f(dd::mEdge{const_cast<dd::mNode*>(node), weight});
  }
}

}  // namespace

std::size_t PlanCache::KeyHash::operator()(const Key& k) const noexcept {
  std::size_t seed = std::hash<const void*>{}(k.pkg);
  hashCombine(seed, std::hash<const void*>{}(k.root));
  hashCombine(seed, std::hash<std::uint64_t>{}(k.weightBits[0]));
  hashCombine(seed, std::hash<std::uint64_t>{}(k.weightBits[1]));
  hashCombine(seed, std::hash<std::uint64_t>{}(
                        (static_cast<std::uint64_t>(k.nQubits) << 32) ^
                        k.threads));
  hashCombine(seed, static_cast<std::size_t>(k.mode));
  hashCombine(seed, k.identFast ? 1u : 0u);
  for (const RunGate& g : k.run) {
    hashCombine(seed, std::hash<const void*>{}(g.n));
    hashCombine(seed, std::hash<std::uint64_t>{}(g.wBits[0]));
    hashCombine(seed, std::hash<std::uint64_t>{}(g.wBits[1]));
  }
  return seed;
}

std::shared_ptr<const DmavPlan> PlanCache::getShared(
    dd::Package& pkg, const dd::mEdge& m, Qubit nQubits, unsigned threads,
    PlanMode mode, bool* wasHit) {
  Key key;
  key.pkg = &pkg;
  key.root = m.n;
  key.weightBits[0] = std::bit_cast<std::uint64_t>(m.w.real());
  key.weightBits[1] = std::bit_cast<std::uint64_t>(m.w.imag());
  key.nQubits = nQubits;
  key.threads = threads;
  key.mode = mode;
  key.identFast = identFastPathEnabled();
  return getCommon(pkg, std::move(key), wasHit, [&] {
    return compileDmavPlan(m, nQubits, threads, mode, &pkg);
  });
}

std::shared_ptr<const DmavPlan> PlanCache::getSharedRun(
    dd::Package& pkg, std::span<const dd::mEdge> run, Qubit nQubits,
    unsigned threads, bool* wasHit) {
  assert(!run.empty());
  Key key;
  key.pkg = &pkg;
  key.root = run[0].n;
  key.weightBits[0] = std::bit_cast<std::uint64_t>(run[0].w.real());
  key.weightBits[1] = std::bit_cast<std::uint64_t>(run[0].w.imag());
  key.nQubits = nQubits;
  key.threads = threads;
  key.mode = PlanMode::Row;
  key.identFast = identFastPathEnabled();
  key.run.reserve(run.size() - 1);
  for (std::size_t g = 1; g < run.size(); ++g) {
    key.run.push_back(RunGate{
        run[g].n,
        {std::bit_cast<std::uint64_t>(run[g].w.real()),
         std::bit_cast<std::uint64_t>(run[g].w.imag())}});
  }
  return getCommon(pkg, std::move(key), wasHit, [&] {
    return compileDiagRunPlan(run, nQubits, threads, &pkg);
  });
}

std::shared_ptr<const DmavPlan> PlanCache::getCommon(
    dd::Package& pkg, Key key, bool* wasHit,
    const std::function<DmavPlan()>& compile) {
  const std::lock_guard lock{mutex_};
  // The caller is the thread serialized on `pkg`, so deferred unpins of
  // this package's roots (parked by other sessions' evictions) are safe to
  // release here.
  drainParkedLocked(&pkg);

  if (capacity_ == 0) {
    ++stats_.misses;
    ++stats_.compiles;
    FDD_OBS_COUNT("planCache.misses");
    FDD_OBS_COUNT("planCache.compiles");
    auto plan = std::make_shared<DmavPlan>(compile());
    stats_.compileSeconds += plan->compileSeconds;
    if (wasHit != nullptr) {
      *wasHit = false;
    }
    return plan;
  }

  if (const auto it = index_.find(key); it != index_.end()) {
    // Pinned roots cannot be *recycled*, so a pointer match is normally a
    // true match — but a package reset drops nodes wholesale regardless of
    // pins. The generation re-check catches that: stale entries are evicted
    // and recompiled instead of replayed.
    if (!it->second->plan->validFor(pkg)) {
      ++stats_.staleHits;
      FDD_OBS_COUNT("planCache.staleHits");
      Entry victim = std::move(*it->second);
      lru_.erase(it->second);
      index_.erase(it);
      unpinOrPark(victim, &pkg);
    } else {
      assert(it->second->plan->root == key.root);
      ++stats_.hits;
      FDD_OBS_COUNT("planCache.hits");
      lru_.splice(lru_.begin(), lru_, it->second);
      if (wasHit != nullptr) {
        *wasHit = true;
      }
      return it->second->plan;
    }
  }

  ++stats_.misses;
  ++stats_.compiles;
  FDD_OBS_COUNT("planCache.misses");
  FDD_OBS_COUNT("planCache.compiles");
  while (index_.size() >= capacity_) {
    evictOldestLocked(&pkg);
  }
  Entry entry;
  entry.key = std::move(key);
  entry.plan = std::make_shared<DmavPlan>(compile());
  entry.pkg = &pkg;
  stats_.compileSeconds += entry.plan->compileSeconds;
  // Pin every root (the primary plus a fused run's extras) so the package
  // cannot recycle any node of the cached gate DDs (children are kept alive
  // transitively by their parents' reference counts).
  forEachPlanRoot(*entry.plan, [&](const dd::mEdge& root) {
    pkg.incRef(root);
  });
  lru_.push_front(std::move(entry));
  index_.emplace(lru_.front().key, lru_.begin());
  if (wasHit != nullptr) {
    *wasHit = false;
  }
  return lru_.front().plan;
}

const DmavPlan& PlanCache::get(dd::Package& pkg, const dd::mEdge& m,
                               Qubit nQubits, unsigned threads,
                               PlanMode mode) {
  std::shared_ptr<const DmavPlan> plan =
      getShared(pkg, m, nQubits, threads, mode);
  const std::lock_guard lock{mutex_};
  holder_ = std::move(plan);
  return *holder_;
}

void PlanCache::unpinOrPark(Entry& victim, const dd::Package* caller) {
  forEachPlanRoot(*victim.plan, [&](const dd::mEdge& root) {
    if (victim.pkg == caller) {
      // Unpinning our own package is safe: the caller is the thread
      // serialized on it.
      victim.pkg->decRef(root);
    } else {
      // Another session owns this package; mutating its reference counts
      // here would race that session's DD phase. Park the pin until the
      // owner's next getShared()/clearPackage().
      parked_[victim.pkg].push_back(ParkedPin{victim.pkg, root.n, root.w});
    }
  });
}

void PlanCache::drainParkedLocked(const dd::Package* pkg) {
  const auto it = parked_.find(pkg);
  if (it == parked_.end()) {
    return;
  }
  for (const ParkedPin& pin : it->second) {
    pin.pkg->decRef(dd::mEdge{const_cast<dd::mNode*>(pin.root), pin.weight});
  }
  parked_.erase(it);
}

void PlanCache::evictOldestLocked(const dd::Package* caller) {
  if (lru_.empty()) {
    return;
  }
  Entry victim = std::move(lru_.back());
  index_.erase(victim.key);
  lru_.pop_back();
  ++stats_.evictions;
  FDD_OBS_COUNT("planCache.evictions");
  unpinOrPark(victim, caller);
}

void PlanCache::clearPackage(dd::Package& pkg) {
  const std::lock_guard lock{mutex_};
  drainParkedLocked(&pkg);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->pkg == &pkg) {
      forEachPlanRoot(*it->plan, [&](const dd::mEdge& root) {
        pkg.decRef(root);
      });
      index_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
  holder_.reset();
}

void PlanCache::clear() {
  const std::lock_guard lock{mutex_};
  for (Entry& entry : lru_) {
    forEachPlanRoot(*entry.plan, [&](const dd::mEdge& root) {
      entry.pkg->decRef(root);
    });
  }
  lru_.clear();
  index_.clear();
  for (auto& [pkg, pins] : parked_) {
    for (const ParkedPin& pin : pins) {
      pin.pkg->decRef(
          dd::mEdge{const_cast<dd::mNode*>(pin.root), pin.weight});
    }
  }
  parked_.clear();
  holder_.reset();
}

std::size_t PlanCache::size() const {
  const std::lock_guard lock{mutex_};
  return index_.size();
}

PlanCacheStats PlanCache::stats() const {
  const std::lock_guard lock{mutex_};
  return stats_;
}

void PlanCache::resetStats() {
  const std::lock_guard lock{mutex_};
  stats_ = PlanCacheStats{};
}

std::size_t PlanCache::memoryBytes() const {
  const std::lock_guard lock{mutex_};
  std::size_t bytes = 0;
  for (const Entry& entry : lru_) {
    bytes += entry.plan->memoryBytes() + sizeof(Entry);
  }
  return bytes;
}

}  // namespace fdd::flat
