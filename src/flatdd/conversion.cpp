#include "flatdd/conversion.hpp"

#include <cassert>
#include <stdexcept>
#include <vector>

#include "common/bits.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/kernels.hpp"

namespace fdd::flat {

namespace {

/// One sequential DFS fill assigned to a single thread.
struct FillTask {
  dd::vEdge e;
  Qubit level = -1;
  Index offset = 0;
  Complex factor{};
};

/// One deferred SIMD scalar multiplication: out[dst..dst+count) =
/// ratio * out[src..src+count). Recorded during planning; executed after all
/// fills, children before parents (reverse discovery order), so every source
/// range is complete before it is read.
struct ScaleTask {
  Index src = 0;
  Index dst = 0;
  Index count = 0;
  Complex ratio{};
};

/// Sequential DFS fill with the single-thread version of the scalar-
/// multiplication optimization (identical children -> fill left, SIMD-scale
/// right).
void fillSequential(const dd::vEdge& e, Qubit level, Index offset,
                    Complex factor, Complex* out) {
  if (e.isZero()) {
    return;  // output pre-zeroed
  }
  const Complex f = factor * e.w;
  if (level < 0) {
    out[offset] = f;
    return;
  }
  const dd::vEdge& lo = e.n->e[0];
  const dd::vEdge& hi = e.n->e[1];
  const Index half = Index{1} << level;
  if (!lo.isZero() && !hi.isZero() && lo.n == hi.n) {
    fillSequential(lo, level - 1, offset, f, out);
    simd::scale(out + offset + half, out + offset, hi.w / lo.w, half);
    return;
  }
  fillSequential(lo, level - 1, offset, f, out);
  fillSequential(hi, level - 1, offset + half, f, out);
}

class Planner {
 public:
  Planner(unsigned threads, ConversionStats& stats)
      : perThread_(threads), stats_{stats} {}

  /// Splits the thread range [tLo, tHi) over the DD under `e`.
  void plan(const dd::vEdge& e, Qubit level, Index offset, Complex factor,
            unsigned tLo, unsigned tHi) {
    if (e.isZero()) {
      ++stats_.zeroSkips;
      return;
    }
    const unsigned t = tHi - tLo;
    if (t == 1 || level < 0) {
      perThread_[tLo].push_back(FillTask{e, level, offset, factor});
      ++stats_.fillTasks;
      return;
    }
    const Complex f = factor * e.w;
    const dd::vEdge& lo = e.n->e[0];
    const dd::vEdge& hi = e.n->e[1];
    const Index half = Index{1} << level;

    // Load balancing: never split threads across a zero edge (Fig. 4a).
    if (lo.isZero()) {
      ++stats_.zeroSkips;
      plan(hi, level - 1, offset + half, f, tLo, tHi);
      return;
    }
    if (hi.isZero()) {
      ++stats_.zeroSkips;
      plan(lo, level - 1, offset, f, tLo, tHi);
      return;
    }
    // Scalar multiplication: identical children mean the two halves are
    // scalar multiples (Fig. 4b). All threads convert the first half; the
    // second is a deferred SIMD fill.
    if (lo.n == hi.n) {
      scales_.push_back(ScaleTask{offset, offset + half, half, hi.w / lo.w});
      plan(lo, level - 1, offset, f, tLo, tHi);
      return;
    }
    const unsigned mid = tLo + t / 2;
    plan(lo, level - 1, offset, f, tLo, mid);
    plan(hi, level - 1, offset + half, f, mid, tHi);
  }

  [[nodiscard]] const std::vector<std::vector<FillTask>>& fills() const {
    return perThread_;
  }
  [[nodiscard]] const std::vector<ScaleTask>& scales() const {
    return scales_;
  }

 private:
  std::vector<std::vector<FillTask>> perThread_;
  std::vector<ScaleTask> scales_;  // discovery order: parents before children
  ConversionStats& stats_;
};

}  // namespace

ConversionStats ddToArrayParallel(const dd::vEdge& state, Qubit nQubits,
                                  std::span<Complex> out, unsigned threads) {
  const Index dim = Index{1} << nQubits;
  if (out.size() != dim) {
    throw std::invalid_argument("ddToArrayParallel: wrong output size");
  }
  auto& pool = par::globalPool();
  unsigned t = std::min<unsigned>(std::max(threads, 1u), pool.size());
  t = static_cast<unsigned>(floorPowerOfTwo(t));

  // Attribute all pool regions below (zero-fill, fills, scales) to the
  // conversion phase in the per-worker load accounting.
  obs::PoolPhaseScope poolPhase{"conversion"};
  ConversionStats stats;

  // Pre-zero the output in parallel; fills then skip zero subtrees.
  pool.parallelFor(t, 0, dim, [&](std::size_t lo, std::size_t hi) {
    simd::zeroFill(out.data() + lo, hi - lo);
  });

  Planner planner{t, stats};
  planner.plan(state, nQubits - 1, 0, Complex{1.0}, 0, t);

  pool.run(t, [&](unsigned i) {
    for (const FillTask& task : planner.fills()[i]) {
      fillSequential(task.e, task.level, task.offset, task.factor, out.data());
    }
  });

  // Children were discovered after their parents; executing in reverse order
  // guarantees each scale's source range is fully materialized.
  const auto& scales = planner.scales();
  for (auto it = scales.rbegin(); it != scales.rend(); ++it) {
    const ScaleTask& s = *it;
    pool.parallelFor(t, 0, s.count, [&](std::size_t lo, std::size_t hi) {
      simd::scale(out.data() + s.dst + lo, out.data() + s.src + lo,
                  s.ratio, hi - lo);
    });
    ++stats.scaleTasks;
  }
  return stats;
}

AlignedVector<Complex> ddToArrayParallel(const dd::vEdge& state, Qubit nQubits,
                                         unsigned threads) {
  AlignedVector<Complex> out(Index{1} << nQubits);
  ddToArrayParallel(state, nQubits, out, threads);
  return out;
}

}  // namespace fdd::flat
