#include "flatdd/dmav.hpp"

#include <atomic>
#include <cassert>
#include <stdexcept>

#include "common/bits.hpp"
#include "flatdd/dmav_plan.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/kernels.hpp"

namespace fdd::flat {

unsigned clampDmavThreads(Qubit nQubits, unsigned threads) {
  unsigned t = std::max(threads, 1u);
  t = std::min<unsigned>(t, par::globalPool().size());
  if (nQubits < 31) {
    t = std::min<unsigned>(t, 1u << nQubits);
  }
  return static_cast<unsigned>(floorPowerOfTwo(t));
}

namespace {

void assignRec(const dd::mEdge& mr, Complex f, unsigned u, Index iv, Qubit l,
               Qubit border, unsigned t, Qubit n,
               std::vector<std::vector<DmavTask>>& out) {
  if (mr.isZero()) {
    return;
  }
  if (l == border) {
    out[u].push_back(DmavTask{mr, iv, f});
    return;
  }
  // Row-major traversal of the four children; i splits the thread range
  // (rows), j advances the input sub-vector (columns) — Alg. 1 line 13.
  const unsigned threadStep = t >> (n - l);
  const Index colStep = Index{1} << l;
  const Complex fw = f * mr.w;
  for (unsigned i = 0; i < 2; ++i) {
    for (unsigned j = 0; j < 2; ++j) {
      assignRec(mr.n->e[2 * i + j], fw, u + i * threadStep, iv + j * colStep,
                l - 1, border, t, n, out);
    }
  }
}

}  // namespace

RowAssignment assignRowSpace(const dd::mEdge& m, Qubit nQubits,
                             unsigned threads) {
  RowAssignment a;
  a.threads = clampDmavThreads(nQubits, threads);
  a.h = (Index{1} << nQubits) / a.threads;
  a.borderLevel = static_cast<Qubit>(nQubits - ilog2(a.threads) - 1);
  a.perThread.resize(a.threads);
  assignRec(m, Complex{1.0}, 0, 0, nQubits - 1, a.borderLevel, a.threads,
            nQubits, a.perThread);
  return a;
}

namespace {
std::atomic<bool> gIdentFastPath{true};
}  // namespace

void setIdentFastPath(bool enabled) noexcept {
  gIdentFastPath.store(enabled, std::memory_order_relaxed);
}

bool identFastPathEnabled() noexcept {
  return gIdentFastPath.load(std::memory_order_relaxed);
}

void runTask(const dd::mEdge& mr, const Complex* v, Complex* w, Qubit level,
             Index iv, Index iw, Complex f) {
  if (mr.isZero()) {
    return;
  }
  if (mr.isTerminal()) {
    w[iw] += f * mr.w * v[iv];  // the MAC (Alg. 1 line 19)
    return;
  }
  assert(mr.n->v == level);
  if (mr.n->ident && gIdentFastPath.load(std::memory_order_relaxed)) {
    // Identity subtree: the whole 2^(level+1) block is one scaled copy.
    simd::scaleAccumulate(w + iw, v + iv, f * mr.w,
                          Index{1} << (level + 1));
    return;
  }
  const Complex fw = f * mr.w;
  const Index step = Index{1} << level;
  // Row-major: i moves the output row, j the input column (Alg. 1 line 21).
  runTask(mr.n->e[0], v, w, level - 1, iv, iw, fw);
  runTask(mr.n->e[1], v, w, level - 1, iv + step, iw, fw);
  runTask(mr.n->e[2], v, w, level - 1, iv, iw + step, fw);
  runTask(mr.n->e[3], v, w, level - 1, iv + step, iw + step, fw);
}

void dmavRecursive(const dd::mEdge& m, Qubit nQubits,
                   std::span<const Complex> v, std::span<Complex> w,
                   unsigned threads) {
  const Index dim = Index{1} << nQubits;
  if (v.size() != dim || w.size() != dim) {
    throw std::invalid_argument("dmav: vector size mismatch");
  }
  if (v.data() == w.data()) {
    throw std::invalid_argument("dmav: V and W must not alias");
  }
  const RowAssignment a = assignRowSpace(m, nQubits, threads);
  auto& pool = par::globalPool();
  pool.run(a.threads, [&](unsigned i) {
    // Each thread owns output rows [i*h, (i+1)*h) — no synchronization.
    Complex* wBase = w.data();
    simd::zeroFill(wBase + i * a.h, a.h);
    for (const DmavTask& task : a.perThread[i]) {
      runTask(task.m, v.data(), wBase, a.borderLevel, task.start,
              static_cast<Index>(i) * a.h, task.f);
    }
  });
}

void dmav(const dd::mEdge& m, Qubit nQubits, std::span<const Complex> v,
          std::span<Complex> w, unsigned threads) {
  const DmavPlan plan =
      compileDmavPlan(m, nQubits, threads, PlanMode::Row);
  replayPlan(plan, v, w);
}

}  // namespace fdd::flat
