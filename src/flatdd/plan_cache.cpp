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

}  // namespace

std::size_t PlanCache::KeyHash::operator()(const Key& k) const noexcept {
  std::size_t seed = std::hash<const void*>{}(k.root);
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

const DmavPlan& PlanCache::get(const dd::mEdge& m, Qubit nQubits,
                               unsigned threads, PlanMode mode,
                               bool* wasHit) {
  Key key;
  key.root = m.n;
  key.weightBits[0] = std::bit_cast<std::uint64_t>(m.w.real());
  key.weightBits[1] = std::bit_cast<std::uint64_t>(m.w.imag());
  key.nQubits = nQubits;
  key.threads = threads;
  key.mode = mode;
  key.identFast = identFastPathEnabled();
  return getCommon(std::move(key), wasHit, [&] {
    return compileDmavPlan(m, nQubits, threads, mode);
  });
}

const DmavPlan& PlanCache::getRun(std::span<const dd::mEdge> run,
                                  Qubit nQubits, unsigned threads,
                                  bool* wasHit) {
  assert(!run.empty());
  Key key;
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
  return getCommon(std::move(key), wasHit, [&] {
    return compileDiagRunPlan(run, nQubits, threads);
  });
}

const DmavPlan& PlanCache::getCommon(
    Key key, bool* wasHit, const std::function<DmavPlan()>& compile) {
  const auto it = index_.find(key);
  if (wasHit != nullptr) {
    *wasHit = it != index_.end();
  }
  if (it != index_.end()) {
    ++stats_.hits;
    FDD_OBS_COUNT("planCache.hits");
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->plan;
  }

  ++stats_.misses;
  ++stats_.compiles;
  FDD_OBS_COUNT("planCache.misses");
  FDD_OBS_COUNT("planCache.compiles");
  if (capacity_ == 0) {
    uncached_ = compile();
    stats_.compileSeconds += uncached_.compileSeconds;
    return uncached_;
  }
  while (index_.size() >= capacity_) {
    evictOldest();
  }
  lru_.push_front(Entry{std::move(key), compile()});
  Entry& entry = lru_.front();
  stats_.compileSeconds += entry.plan.compileSeconds;
  setPinned(entry.key, true);
  index_.emplace(entry.key, lru_.begin());
  return entry.plan;
}

void PlanCache::setPinned(const Key& key, bool pin) {
  const auto apply = [&](dd::mNode* root) {
    if (pin) {
      pkg_->incRef(dd::mEdge{root, {}});
    } else {
      pkg_->decRef(dd::mEdge{root, {}});
    }
  };
  apply(key.root);
  for (const RunGate& g : key.run) {
    apply(g.n);
  }
}

void PlanCache::evictOldest() {
  setPinned(lru_.back().key, false);
  index_.erase(lru_.back().key);
  lru_.pop_back();
  ++stats_.evictions;
  FDD_OBS_COUNT("planCache.evictions");
}

void PlanCache::clear() {
  for (const Entry& entry : lru_) {
    setPinned(entry.key, false);
  }
  lru_.clear();
  index_.clear();
}

std::size_t PlanCache::memoryBytes() const {
  std::size_t bytes = 0;
  for (const Entry& entry : lru_) {
    bytes += entry.plan.memoryBytes() + sizeof(Entry) +
             entry.key.run.capacity() * sizeof(RunGate);
  }
  return bytes;
}

}  // namespace fdd::flat
