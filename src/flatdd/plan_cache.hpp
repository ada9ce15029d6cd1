#pragma once
// Bounded LRU cache of compiled DmavPlans (see dmav_plan.hpp). The cache is
// what turns the one-time plan compilation into a per-circuit cost: deep
// circuits apply the same few gate DDs (canonical QMDDs dedupe repeated
// gates structurally) hundreds of times, so after warm-up every application
// is a pure replay.
//
// One owner: each FlatDDSimulator holds one cache over its own DD package.
// The cache is not synchronized; its owner's calls are serialized (a service
// session's jobs run one at a time on the session's FIFO lane).
//
// Key identity: a plan is keyed by the gate DD's root node pointer plus its
// edge weight (canonical weights are bit-exact comparable) — for a fused
// diagonal run, by every gate's (root, weight) — and by the qubit count,
// thread count, plan mode and the ident-fast-path flag the compiler baked
// in. Raw node pointers are only meaningful while the node is alive — the
// package's NodePool recycles addresses of collected nodes — so an entry
// *pins* every root its key names with Package::incRef on insertion (and
// decRef on eviction). A pinned node cannot be collected and its children
// stay alive through its reference counts, so a pointer match is a true
// identity match for as long as the entry lives. Compiled plans hold no DD
// pointers; the entry's key is what pins.

#include <cstdint>
#include <functional>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "flatdd/dmav_plan.hpp"

namespace fdd::dd {
class Package;
}

namespace fdd::flat {

/// Plans a simulator's cache holds at once. A circuit layer rarely has more
/// than a few dozen distinct gate DDs; a plan is O(ops), not O(2^n).
inline constexpr std::size_t kPlanCacheCapacity = 64;

struct PlanCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t compiles = 0;    // misses that led to an insert
  std::size_t evictions = 0;
  double compileSeconds = 0;   // total time spent compiling plans
};

class PlanCache {
 public:
  /// Caches plans of gate DDs owned by `pkg`, which must outlive the cache.
  /// `capacity` = max number of live plans (0 disables caching entirely:
  /// every get compiles a throwaway plan).
  explicit PlanCache(dd::Package& pkg,
                     std::size_t capacity = kPlanCacheCapacity)
      : pkg_{&pkg}, capacity_{capacity} {}
  ~PlanCache() { clear(); }

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the plan for gate `m` at (nQubits, threads, mode), compiling
  /// and caching it on a miss. The reference stays valid until the next
  /// call on this cache. `wasHit`, when non-null, receives whether this
  /// call was served from cache.
  const DmavPlan& get(const dd::mEdge& m, Qubit nQubits, unsigned threads,
                      PlanMode mode, bool* wasHit = nullptr);

  /// Returns the fused DiagRun plan for a run of consecutive diagonal gates
  /// (compileDiagRunPlan on a miss). The key embeds every gate's (root,
  /// weight) signature, and *all* run roots are pinned while the plan is
  /// cached, so the combined phase table can be replayed whenever the exact
  /// same gate sequence recurs (QFT ladders, layered rotation circuits).
  /// Same lifetime contract as get(); `run` must be non-empty.
  const DmavPlan& getRun(std::span<const dd::mEdge> run, Qubit nQubits,
                         unsigned threads, bool* wasHit = nullptr);

  /// Drops all plans and unpins their roots.
  void clear();

  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] const PlanCacheStats& stats() const noexcept {
    return stats_;
  }

  /// Total heap footprint of the cached plans.
  [[nodiscard]] std::size_t memoryBytes() const;

 private:
  /// Signature of one extra gate of a fused run (gates 2..k).
  struct RunGate {
    dd::mNode* n = nullptr;
    std::uint64_t wBits[2] = {0, 0};

    bool operator==(const RunGate&) const = default;
  };
  struct Key {
    dd::mNode* root = nullptr;
    std::uint64_t weightBits[2] = {0, 0};  // bit-exact canonical weight
    Qubit nQubits = 0;
    unsigned threads = 0;
    PlanMode mode = PlanMode::Row;
    bool identFast = true;
    std::vector<RunGate> run;  // gates 2..k of a fused run (else empty)

    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  struct Entry {
    Key key;  // names, and pins, every gate root of the plan
    DmavPlan plan;
  };
  using LruList = std::list<Entry>;

  const DmavPlan& getCommon(Key key, bool* wasHit,
                            const std::function<DmavPlan()>& compile);
  /// incRef (`pin`) or decRef every root node `key` names.
  void setPinned(const Key& key, bool pin);
  void evictOldest();

  dd::Package* pkg_;
  std::size_t capacity_;
  LruList lru_;  // front = most recently used
  std::unordered_map<Key, LruList::iterator, KeyHash> index_;
  DmavPlan uncached_;  // the last plan compiled at capacity 0
  PlanCacheStats stats_;
};

}  // namespace fdd::flat
