#include "flatdd/dmav_cache.hpp"

#include <atomic>
#include <stdexcept>
#include <unordered_map>

#include "common/bits.hpp"
#include "flatdd/dmav_plan.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/kernels.hpp"

namespace fdd::flat {

namespace {

void assignCacheRec(const dd::mEdge& mr, Complex f, unsigned u, Index ip,
                    Qubit l, Qubit border, unsigned t, Qubit n,
                    std::vector<std::vector<DmavTask>>& out) {
  if (mr.isZero()) {
    return;
  }
  if (l == border) {
    out[u].push_back(DmavTask{mr, ip, f});
    return;
  }
  // Column-major traversal: j splits the thread range (columns), i advances
  // the partial-output row offset — Alg. 2 line 21.
  const unsigned threadStep = t >> (n - l);
  const Index rowStep = Index{1} << l;
  const Complex fw = f * mr.w;
  for (unsigned j = 0; j < 2; ++j) {
    for (unsigned i = 0; i < 2; ++i) {
      assignCacheRec(mr.n->e[2 * i + j], fw, u + j * threadStep,
                     ip + i * rowStep, l - 1, border, t, n, out);
    }
  }
}

}  // namespace

ColumnAssignment assignColumnSpace(const dd::mEdge& m, Qubit nQubits,
                                   unsigned threads) {
  ColumnAssignment a;
  a.threads = clampDmavThreads(nQubits, threads);
  a.h = (Index{1} << nQubits) / a.threads;
  a.borderLevel = static_cast<Qubit>(nQubits - ilog2(a.threads) - 1);
  a.perThread.resize(a.threads);
  assignCacheRec(m, Complex{1.0}, 0, 0, nQubits - 1, a.borderLevel, a.threads,
                 nQubits, a.perThread);

  // Buffer sharing (Alg. 2 lines 22-25): give thread i the first existing
  // buffer none of whose current occupants overlap it, else a new buffer.
  // Tasks cover h-aligned row blocks [start, start + h), so each thread's
  // footprint is a set of block indices in [0, threads); a per-buffer block
  // bitmap makes each placement test O(blocks) instead of the former
  // O(occupants * tasks^2) pairwise start comparison.
  a.bufferOf.assign(a.threads, 0);
  std::vector<std::vector<char>> occupied;  // buffer -> block bitmap
  std::vector<Index> blocks;                // thread i's block indices
  for (unsigned i = 0; i < a.threads; ++i) {
    blocks.clear();
    for (const DmavTask& task : a.perThread[i]) {
      blocks.push_back(task.start / a.h);
    }
    bool placed = false;
    for (unsigned b = 0; b < occupied.size() && !placed; ++b) {
      bool clash = false;
      for (const Index blk : blocks) {
        if (occupied[b][blk] != 0) {
          clash = true;
          break;
        }
      }
      if (!clash) {
        a.bufferOf[i] = b;
        for (const Index blk : blocks) {
          occupied[b][blk] = 1;
        }
        placed = true;
      }
    }
    if (!placed) {
      a.bufferOf[i] = static_cast<unsigned>(occupied.size());
      occupied.emplace_back(a.threads, char{0});
      for (const Index blk : blocks) {
        occupied.back()[blk] = 1;
      }
    }
  }
  a.numBuffers = static_cast<unsigned>(occupied.size());
  return a;
}

Complex* DmavWorkspace::buffer(std::size_t i, Index dim) {
  ensure(i + 1, dim);
  return buffers_[i].data();
}

void DmavWorkspace::ensure(std::size_t count, Index dim) {
  if (buffers_.size() < count) {
    buffers_.resize(count);
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (buffers_[i].size() != dim) {
      buffers_[i].assign(dim, Complex{});
    }
  }
}

std::size_t DmavWorkspace::memoryBytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& b : buffers_) {
    bytes += b.size() * sizeof(Complex);
  }
  return bytes;
}

DmavCacheStats dmavCachedRecursive(const dd::mEdge& m, Qubit nQubits,
                                   std::span<const Complex> v,
                                   std::span<Complex> w, unsigned threads,
                                   DmavWorkspace& workspace) {
  const Index dim = Index{1} << nQubits;
  if (v.size() != dim || w.size() != dim) {
    throw std::invalid_argument("dmavCached: vector size mismatch");
  }
  if (v.data() == w.data()) {
    throw std::invalid_argument("dmavCached: V and W must not alias");
  }
  const ColumnAssignment a = assignColumnSpace(m, nQubits, dim == 1 ? 1 : threads);
  DmavCacheStats stats;
  stats.buffers = a.numBuffers;

  workspace.ensure(std::max<std::size_t>(a.numBuffers, 1), dim);
  auto& pool = par::globalPool();

  std::vector<Complex*> bufs(std::max<std::size_t>(a.numBuffers, 1));
  for (std::size_t b = 0; b < bufs.size(); ++b) {
    bufs[b] = workspace.buffer(b, dim);
  }

  // Row blocks are h-sized and h-aligned, so there are exactly `threads`
  // of them. Track which buffer writes which block: zeroing and the final
  // reduction then touch only written segments instead of b full vectors.
  std::vector<char> written(static_cast<std::size_t>(a.numBuffers) *
                                a.threads,
                            0);
  for (unsigned i = 0; i < a.threads; ++i) {
    for (const DmavTask& task : a.perThread[i]) {
      const std::size_t block = static_cast<std::size_t>(task.start / a.h);
      written[static_cast<std::size_t>(a.bufferOf[i]) * a.threads + block] = 1;
    }
  }

  // Phase 1: per-thread multiplication with caching (Alg. 2 lines 3-10).
  // Each thread first zeroes exactly the segments it is about to write
  // (thread-local, so no extra barrier), then runs its tasks.
  std::atomic<std::size_t> totalHits{0};
  pool.run(a.threads, [&](unsigned i) {
    // Cached sub-products: coefficient + row offset keyed by the sub-matrix
    // node (the input sub-vector is fixed per thread). Hashed lookup keeps
    // the phase linear in the task count even when large thread counts
    // produce hundreds of h-aligned row-block tasks.
    struct CacheEntry {
      Complex coeff;
      Index start;
    };
    const auto& tasks = a.perThread[i];
    std::unordered_map<const dd::mNode*, CacheEntry> cache;
    cache.reserve(tasks.size());
    Complex* buf = bufs[a.bufferOf[i]];
    const Index ivBase = static_cast<Index>(i) * a.h;
    std::size_t hits = 0;
    for (const DmavTask& task : tasks) {
      simd::zeroFill(buf + task.start, a.h);
    }
    for (const DmavTask& task : tasks) {
      const Complex coeff = task.f * task.m.w;
      if (!task.m.isTerminal()) {
        if (const auto found = cache.find(task.m.n); found != cache.end()) {
          // SIMD scalar multiplication reusing the historical result
          // (Alg. 2 line 7).
          simd::scale(buf + task.start, buf + found->second.start,
                      coeff / found->second.coeff, a.h);
          ++hits;
          continue;
        }
        cache.emplace(task.m.n, CacheEntry{coeff, task.start});
      }
      runTask(task.m, v.data(), buf, a.borderLevel, ivBase, task.start,
              task.f);
    }
    totalHits.fetch_add(hits, std::memory_order_relaxed);
  });
  stats.cacheHits = totalHits.load();
  for (const auto& tasks : a.perThread) {
    stats.tasks += tasks.size();
  }

  // Phase 2: reduce the buffers into W (Alg. 2 lines 11-13), summing only
  // the buffers that actually wrote each row block.
  pool.run(a.threads, [&](unsigned i) {
    const Index lo = static_cast<Index>(i) * a.h;
    bool first = true;
    for (std::size_t b = 0; b < a.numBuffers; ++b) {
      if (written[b * a.threads + i] == 0) {
        continue;
      }
      if (first) {
        std::copy(bufs[b] + lo, bufs[b] + lo + a.h, w.data() + lo);
        first = false;
      } else {
        simd::accumulate(w.data() + lo, bufs[b] + lo, a.h);
      }
    }
    if (first) {
      simd::zeroFill(w.data() + lo, a.h);  // no contribution to this block
    }
  });
  return stats;
}

DmavCacheStats dmavCached(const dd::mEdge& m, Qubit nQubits,
                          std::span<const Complex> v, std::span<Complex> w,
                          unsigned threads, DmavWorkspace& workspace) {
  const DmavPlan plan =
      compileDmavPlan(m, nQubits, threads, PlanMode::Cached);
  return replayPlanCached(plan, v, w, workspace);
}

}  // namespace fdd::flat
