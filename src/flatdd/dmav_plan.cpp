#include "flatdd/dmav_plan.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "common/bits.hpp"
#include "common/timing.hpp"
#include "dd/package.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/kernels.hpp"

namespace fdd::flat {

const char* toString(SpanOpKind kind) noexcept {
  switch (kind) {
    case SpanOpKind::MacSpan: return "MacSpan";
    case SpanOpKind::IdentScale: return "IdentScale";
    case SpanOpKind::Mac2Span: return "Mac2Span";
    case SpanOpKind::DiagScale: return "DiagScale";
    case SpanOpKind::PermuteCopy: return "PermuteCopy";
    case SpanOpKind::BlockScale: return "BlockScale";
    case SpanOpKind::DiagRun: return "DiagRun";
  }
  return "?";
}

namespace {

/// Per-op fixed cost (dispatch + loop setup) in MAC-equivalents, added to
/// the span length when modeling a block's replay time.
constexpr double kOpOverheadCost = 8.0;

/// Flattens the runTask recursion (Alg. 1 lines 16-22) under edge `e` at
/// `level` into span ops. `f` is the accumulated weight product excluding
/// e.w, matching the DmavTask convention.
void flattenTask(const dd::mEdge& e, Qubit level, Index iv, Index iw,
                 Complex f, bool identFast, std::vector<SpanOp>& out) {
  if (e.isZero()) {
    return;
  }
  const Complex fw = f * e.w;
  if (e.isTerminal()) {
    out.push_back(SpanOp{.iv = iv, .iw = iw, .len = 1, .f = fw,
                         .kind = SpanOpKind::MacSpan});
    return;
  }
  if (e.n->ident && identFast) {
    out.push_back(SpanOp{.iv = iv, .iw = iw, .len = Index{1} << (level + 1),
                         .f = fw, .kind = SpanOpKind::IdentScale});
    return;
  }
  const Index step = Index{1} << level;
  flattenTask(e.n->e[0], level - 1, iv, iw, fw, identFast, out);
  flattenTask(e.n->e[1], level - 1, iv + step, iw, fw, identFast, out);
  flattenTask(e.n->e[2], level - 1, iv, iw + step, fw, identFast, out);
  flattenTask(e.n->e[3], level - 1, iv + step, iw + step, fw, identFast, out);
}

/// Merges runs of ops that continue each other (same input/output stride,
/// same coefficient). Scalar MACs along a constant diagonal collapse into
/// one SIMD span; with the ident fast path disabled this rebuilds the
/// identity spans the flattener skipped.
void mergeAdjacent(std::vector<SpanOp>& ops) {
  const auto singleAccum = [](SpanOpKind k) {
    return k == SpanOpKind::MacSpan || k == SpanOpKind::IdentScale;
  };
  std::size_t w = 0;
  for (std::size_t r = 0; r < ops.size(); ++r) {
    if (w > 0) {
      SpanOp& prev = ops[w - 1];
      const SpanOp& cur = ops[r];
      if (singleAccum(prev.kind) && singleAccum(cur.kind) &&
          prev.iw + prev.len == cur.iw && prev.iv + prev.len == cur.iv &&
          prev.f == cur.f) {
        prev.len += cur.len;
        if (prev.kind != cur.kind) {
          prev.kind = SpanOpKind::MacSpan;
        }
        continue;
      }
    }
    ops[w++] = ops[r];
  }
  ops.resize(w);
}

/// Fuses adjacent single-input accumulates into the same output span — the
/// two nonzero entries of a dense 2x2 row — into one Mac2Span, halving the
/// reads and writes of w. Runs after promoteExclusive (a promoted block has
/// no accumulates left) and before collapseStrided (so low-qubit combs of
/// fused ops still collapse).
void fuseMac2(std::vector<SpanOp>& ops) {
  const auto fusable = [](SpanOpKind k) {
    return k == SpanOpKind::MacSpan || k == SpanOpKind::IdentScale;
  };
  std::size_t w = 0;
  for (std::size_t r = 0; r < ops.size(); ++r) {
    if (w > 0) {
      SpanOp& prev = ops[w - 1];
      const SpanOp& cur = ops[r];
      if (fusable(prev.kind) && fusable(cur.kind) && prev.iw == cur.iw &&
          prev.len == cur.len) {
        prev.kind = SpanOpKind::Mac2Span;
        prev.iv2 = cur.iv;
        prev.f2 = cur.f;
        continue;
      }
    }
    ops[w++] = ops[r];
  }
  ops.resize(w);
}

/// Minimum run length worth collapsing into a strided comb op.
constexpr std::size_t kMinStridedRun = 4;

bool sameShape(const SpanOp& a, const SpanOp& b) noexcept {
  return a.kind == b.kind && a.len == b.len && a.count == 1 && b.count == 1 &&
         a.f == b.f && a.f2 == b.f2;
}

/// Length of the arithmetic run ops[i], ops[i+p], ops[i+2p], ... sharing
/// shape and advancing every offset (iw, iv, and iv2 for Mac2Span) by the
/// same constant positive delta. Writes that delta to `strideOut`.
std::size_t stridedRunLength(const std::vector<SpanOp>& ops, std::size_t i,
                             std::size_t p, Index& strideOut) {
  if (i + p >= ops.size()) {
    return 1;
  }
  const SpanOp& a = ops[i];
  const SpanOp& b = ops[i + p];
  if (!sameShape(a, b) || b.iw <= a.iw) {
    return 1;
  }
  const Index d = b.iw - a.iw;
  if (d < a.len) {
    return 1;  // repetitions would overlap
  }
  const auto follows = [&](const SpanOp& prev, const SpanOp& cur) {
    return sameShape(prev, cur) && cur.iw == prev.iw + d &&
           cur.iv == prev.iv + d &&
           (prev.kind != SpanOpKind::Mac2Span || cur.iv2 == prev.iv2 + d);
  };
  std::size_t runLen = 1;
  for (std::size_t j = i; j + p < ops.size() && follows(ops[j], ops[j + p]);
       j += p) {
    ++runLen;
  }
  strideOut = d;
  return runLen;
}

SpanOp makeStrided(const SpanOp& first, std::size_t count, Index stride) {
  SpanOp op = first;
  op.count = static_cast<Index>(count);
  op.stride = stride;
  return op;
}

/// Collapses arithmetic runs of identically-shaped ops into strided comb
/// ops. Low-qubit gates emit one op per 2^q-element sub-span — O(2^n) ops —
/// with offsets advancing by a constant 2^(q+1); after this pass they are
/// O(1) comb ops per block. Runs are detected at period 1 (back-to-back)
/// and period 2 (two interleaved combs, the shape alternating-coefficient
/// diagonals and X-style swaps produce). Interleaved runs re-order ops,
/// which is safe: exclusive writes are disjoint and accumulates commute.
void collapseStrided(std::vector<SpanOp>& ops) {
  if (ops.size() < kMinStridedRun) {
    return;
  }
  std::vector<SpanOp> out;
  out.reserve(ops.size());
  std::size_t i = 0;
  while (i < ops.size()) {
    Index d1 = 0;
    const std::size_t r1 = stridedRunLength(ops, i, 1, d1);
    if (r1 >= kMinStridedRun) {
      out.push_back(makeStrided(ops[i], r1, d1));
      i += r1;
      continue;
    }
    if (i + 1 < ops.size()) {
      Index dA = 0;
      Index dB = 0;
      const std::size_t rA = stridedRunLength(ops, i, 2, dA);
      const std::size_t rB = stridedRunLength(ops, i + 1, 2, dB);
      const std::size_t c = std::min(rA, rB);
      if (c >= kMinStridedRun && dA == dB) {
        out.push_back(makeStrided(ops[i], c, dA));
        out.push_back(makeStrided(ops[i + 1], c, dB));
        i += 2 * c;
        continue;
      }
    }
    out.push_back(ops[i]);
    ++i;
  }
  ops = std::move(out);
}

/// If the ops' output spans are pairwise disjoint, promotes them to
/// exclusive-write kinds and returns the uncovered gaps of [rowBegin,
/// rowBegin + rows) as the only spans that still need zero-filling.
/// Otherwise leaves the accumulate kinds in place and zero-fills the whole
/// range. Returns true on promotion.
bool promoteExclusive(std::vector<SpanOp>& ops, Index rowBegin, Index rows,
                      std::vector<ZeroSpan>& zeroSpans) {
  std::vector<std::pair<Index, Index>> covered;  // (begin, end) of outputs
  covered.reserve(ops.size());
  for (const SpanOp& op : ops) {
    covered.emplace_back(op.iw, op.iw + op.len);
  }
  std::sort(covered.begin(), covered.end());
  bool disjoint = true;
  for (std::size_t i = 1; i < covered.size(); ++i) {
    if (covered[i].first < covered[i - 1].second) {
      disjoint = false;
      break;
    }
  }
  if (!disjoint) {
    zeroSpans.push_back(ZeroSpan{rowBegin, rows});
    return false;
  }
  for (SpanOp& op : ops) {
    op.kind = op.iv == op.iw ? SpanOpKind::DiagScale : SpanOpKind::PermuteCopy;
  }
  Index cursor = rowBegin;
  for (const auto& [begin, end] : covered) {
    if (begin > cursor) {
      zeroSpans.push_back(ZeroSpan{cursor, begin - cursor});
    }
    cursor = end;
  }
  if (cursor < rowBegin + rows) {
    zeroSpans.push_back(ZeroSpan{cursor, rowBegin + rows - cursor});
  }
  return true;
}

double modelCost(const std::vector<SpanOp>& ops,
                 const std::vector<ZeroSpan>& zeroSpans) {
  // Cost unit: vector iterations at the runtime dispatch width. One complex
  // amplitude is two doubles, so a span of len amplitudes retires in
  // ceil(2*len / d) instructions (Eq. 6's d, resolved at runtime).
  const double d = static_cast<double>(simd::lanes());
  double cost = 0;
  for (const SpanOp& op : ops) {
    const double iters = std::ceil(2.0 * static_cast<double>(op.len) / d) *
                         static_cast<double>(op.count);
    const double terms = op.kind == SpanOpKind::Mac2Span ? 2.0 : 1.0;
    cost += iters * terms + kOpOverheadCost;
  }
  for (const ZeroSpan& z : zeroSpans) {
    cost += static_cast<double>(z.len) / d;
  }
  return cost;
}

void compileRow(const dd::mEdge& m, DmavPlan& plan) {
  const Qubit n = plan.nQubits;
  const unsigned t = plan.threads;
  // Balancing granularity: split each thread's row block into up to
  // kPlanSplitFactor sub-blocks, as long as sub-blocks keep at least
  // kMinPlanBlockRows rows (and at most 2^n blocks exist overall).
  unsigned split = 1;
  if (t > 1) {
    while (split < kPlanSplitFactor &&
           Index{t} * split * 2 <= plan.dim &&
           plan.dim / (Index{t} * split * 2) >= kMinPlanBlockRows) {
      split *= 2;
    }
  }
  const unsigned nBlocks = t * split;
  const Index rows = plan.dim / nBlocks;
  const Qubit border = static_cast<Qubit>(n - ilog2(nBlocks) - 1);

  // Reuse Assign (Alg. 1) with nBlocks virtual threads to partition the
  // matrix down to the sub-block border level.
  std::vector<std::vector<DmavTask>> perBlock(nBlocks);
  // assignRowSpace would re-clamp; replicate its recursion via a local
  // traversal identical to assignRec's contract.
  struct Rec {
    unsigned nBlocks;
    Qubit n;
    Qubit border;
    std::vector<std::vector<DmavTask>>* out;
    void operator()(const dd::mEdge& mr, Complex f, unsigned u, Index iv,
                    Qubit l) const {
      if (mr.isZero()) {
        return;
      }
      if (l == border) {
        (*out)[u].push_back(DmavTask{mr, iv, f});
        return;
      }
      const unsigned blockStep = nBlocks >> (n - l);
      const Index colStep = Index{1} << l;
      const Complex fw = f * mr.w;
      for (unsigned i = 0; i < 2; ++i) {
        for (unsigned j = 0; j < 2; ++j) {
          (*this)(mr.n->e[2 * i + j], fw, u + i * blockStep,
                  iv + j * colStep, l - 1);
        }
      }
    }
  };
  Rec{nBlocks, n, border, &perBlock}(m, Complex{1.0}, 0, 0, n - 1);

  plan.blocks.resize(nBlocks);
  for (unsigned b = 0; b < nBlocks; ++b) {
    PlanBlock& block = plan.blocks[b];
    block.rowBegin = static_cast<Index>(b) * rows;
    block.rows = rows;
    for (const DmavTask& task : perBlock[b]) {
      flattenTask(task.m, border, task.start, block.rowBegin, task.f,
                  plan.identFast, block.ops);
    }
    mergeAdjacent(block.ops);
    promoteExclusive(block.ops, block.rowBegin, block.rows, block.zeroSpans);
    fuseMac2(block.ops);
    collapseStrided(block.ops);
    block.cost = modelCost(block.ops, block.zeroSpans);
  }

  // Longest-processing-time packing of blocks onto threads. Row blocks own
  // disjoint output rows, so any assignment is race-free; LPT flattens the
  // per-thread skew that irregular DDs produce under the fixed 1:1 mapping.
  std::vector<std::uint32_t> order(nBlocks);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return plan.blocks[a].cost > plan.blocks[b].cost;
                   });
  plan.blocksOf.assign(t, {});
  std::vector<double> load(t, 0.0);
  for (const std::uint32_t id : order) {
    const auto it = std::min_element(load.begin(), load.end());
    const auto u = static_cast<std::size_t>(it - load.begin());
    plan.blocksOf[u].push_back(id);
    *it += plan.blocks[id].cost;
  }
}

void compileCached(const dd::mEdge& m, DmavPlan& plan) {
  const ColumnAssignment a =
      assignColumnSpace(m, plan.nQubits, plan.threads);
  plan.threads = a.threads;
  plan.h = a.h;
  plan.numBuffers = a.numBuffers;
  plan.colPrograms.resize(a.threads);
  plan.reduceFrom.assign(a.threads, {});

  std::vector<char> written(
      static_cast<std::size_t>(std::max(a.numBuffers, 1u)) * a.threads, 0);

  for (unsigned i = 0; i < a.threads; ++i) {
    ColumnProgram& prog = plan.colPrograms[i];
    prog.buffer = a.bufferOf[i];
    const Index ivBase = static_cast<Index>(i) * a.h;
    // First-occurrence table of sub-matrix nodes (coefficient + row offset),
    // resolved at compile time: repeats become BlockScale ops.
    std::unordered_map<const dd::mNode*, std::pair<Complex, Index>> seen;
    seen.reserve(a.perThread[i].size());
    for (const DmavTask& task : a.perThread[i]) {
      ++plan.tasks;
      const std::size_t block = static_cast<std::size_t>(task.start / a.h);
      written[static_cast<std::size_t>(prog.buffer) * a.threads + block] = 1;
      const Complex coeff = task.f * task.m.w;
      if (!task.m.isTerminal()) {
        const auto it = seen.find(task.m.n);
        if (it != seen.end()) {
          prog.ops.push_back(SpanOp{.iv = it->second.second,
                                    .iw = task.start, .len = a.h,
                                    .f = coeff / it->second.first,
                                    .kind = SpanOpKind::BlockScale});
          ++plan.cacheHits;
          continue;
        }
        seen.emplace(task.m.n, std::make_pair(coeff, task.start));
      }
      const std::size_t opsBegin = prog.ops.size();
      flattenTask(task.m, a.borderLevel, ivBase, task.start, task.f,
                  plan.identFast, prog.ops);
      std::vector<SpanOp> taskOps(prog.ops.begin() +
                                      static_cast<std::ptrdiff_t>(opsBegin),
                                  prog.ops.end());
      prog.ops.resize(opsBegin);
      mergeAdjacent(taskOps);
      promoteExclusive(taskOps, task.start, a.h, prog.zeroSpans);
      fuseMac2(taskOps);
      collapseStrided(taskOps);
      prog.ops.insert(prog.ops.end(), taskOps.begin(), taskOps.end());
    }
  }

  for (unsigned blk = 0; blk < a.threads; ++blk) {
    for (unsigned b = 0; b < a.numBuffers; ++b) {
      if (written[static_cast<std::size_t>(b) * a.threads + blk] != 0) {
        plan.reduceFrom[blk].push_back(b);
      }
    }
  }
}

// ---- diagonal-run lowering ------------------------------------------------

bool isDiagonalRec(const dd::mNode* n,
                   std::unordered_set<const dd::mNode*>& seen) {
  if (!seen.insert(n).second) {
    return true;
  }
  if (n->ident) {
    return true;
  }
  if (!n->e[1].isZero() || !n->e[2].isZero()) {
    return false;
  }
  for (const int c : {0, 3}) {
    const dd::mEdge& e = n->e[static_cast<std::size_t>(c)];
    if (!e.isZero() && !e.isTerminal() && !isDiagonalRec(e.n, seen)) {
      return false;
    }
  }
  return true;
}

/// Writes the diagonal of edge `e` (node at `level`, span 2^(level+1)) into
/// diag[idx..], with accumulated weight `f` (excluding e.w). A terminal edge
/// above the bottom contributes only its first entry, matching flattenTask's
/// len-1 convention; the remainder of the span is zero.
void writeDiagRec(const dd::mEdge& e, Qubit level, Index idx, Complex f,
                  Complex* diag) {
  const Index len = Index{1} << (level + 1);
  if (e.isZero()) {
    simd::zeroFill(diag + idx, len);
    return;
  }
  const Complex fw = f * e.w;
  if (e.isTerminal()) {
    diag[idx] = fw;
    if (len > 1) {
      simd::zeroFill(diag + idx + 1, len - 1);
    }
    return;
  }
  if (e.n->ident) {
    std::fill(diag + idx, diag + idx + len, fw);
    return;
  }
  const Index step = Index{1} << level;
  writeDiagRec(e.n->e[0], level - 1, idx, fw, diag);
  writeDiagRec(e.n->e[3], level - 1, idx + step, fw, diag);
}

/// Folds another diagonal gate into an already-written table: pointwise
/// product of the existing entries with this gate's diagonal. Identity
/// subtrees with unit weight — the bulk of an RZ/CP DD — are skipped.
void foldDiagRec(const dd::mEdge& e, Qubit level, Index idx, Complex f,
                 Complex* diag) {
  const Index len = Index{1} << (level + 1);
  if (e.isZero()) {
    simd::zeroFill(diag + idx, len);
    return;
  }
  const Complex fw = f * e.w;
  if (e.isTerminal()) {
    diag[idx] *= fw;
    if (len > 1) {
      simd::zeroFill(diag + idx + 1, len - 1);
    }
    return;
  }
  if (e.n->ident) {
    if (fw != Complex{1.0}) {
      simd::scale(diag + idx, diag + idx, fw, len);
    }
    return;
  }
  const Index step = Index{1} << level;
  foldDiagRec(e.n->e[0], level - 1, idx, fw, diag);
  foldDiagRec(e.n->e[3], level - 1, idx + step, fw, diag);
}

// ---- dense-block lowering -------------------------------------------------

/// Carves the dense plan's work into per-thread DenseBlockOp chunks. Every
/// chunk has cost proportional to baseCount * runLen, so greedy min-load
/// packing balances exactly.
void compileDense(const DenseGateInfo& info, DmavPlan& plan) {
  plan.denseK = info.k;
  plan.denseU = info.u;
  const unsigned m = 1u << info.k;
  Index activeMask = 0;
  for (unsigned i = 0; i < info.k; ++i) {
    activeMask |= Index{1} << info.qubits[i];
  }
  for (unsigned j = 0; j < m; ++j) {
    Index off = 0;
    for (unsigned i = 0; i < info.k; ++i) {
      if ((j >> i & 1u) != 0) {
        off |= Index{1} << info.qubits[i];
      }
    }
    plan.denseOffsets[j] = off;
  }
  plan.denseRunLen = Index{1} << info.qubits[0];
  plan.denseFreeHiMask =
      (plan.dim - 1) & ~activeMask & ~(plan.denseRunLen - 1);
  const Index nBases =
      Index{1} << std::popcount(plan.denseFreeHiMask);

  const unsigned t = plan.threads;
  const Index targets = Index{t} * kPlanSplitFactor;
  std::vector<DenseBlockOp> chunks;
  if (nBases >= targets) {
    // Plenty of bases: contiguous base ranges, full runs.
    for (Index c = 0; c < targets; ++c) {
      const Index b0 = nBases * c / targets;
      const Index b1 = nBases * (c + 1) / targets;
      if (b1 > b0) {
        chunks.push_back(DenseBlockOp{b0, b1 - b0, 0, plan.denseRunLen});
      }
    }
  } else {
    // Few bases (active qubits near the top): split each base's run on
    // kDenseTileAmps boundaries so threads share a single long run.
    const Index perBase = (targets + nBases - 1) / nBases;
    Index slice = (plan.denseRunLen + perBase - 1) / perBase;
    slice = std::max(kDenseTileAmps,
                     (slice + kDenseTileAmps - 1) / kDenseTileAmps *
                         kDenseTileAmps);
    for (Index b = 0; b < nBases; ++b) {
      for (Index off = 0; off < plan.denseRunLen; off += slice) {
        chunks.push_back(
            DenseBlockOp{b, 1, off, std::min(slice, plan.denseRunLen - off)});
      }
    }
  }

  plan.denseOpsOf.assign(t, {});
  std::vector<double> load(t, 0.0);
  for (const DenseBlockOp& chunk : chunks) {
    const auto it = std::min_element(load.begin(), load.end());
    plan.denseOpsOf[static_cast<std::size_t>(it - load.begin())].push_back(
        chunk);
    *it += static_cast<double>(chunk.baseCount) *
           static_cast<double>(chunk.runLen);
  }
}

}  // namespace

std::size_t DmavPlan::opCount() const noexcept {
  std::size_t count = 0;
  for (const PlanBlock& b : blocks) {
    count += b.ops.size();
  }
  for (const ColumnProgram& p : colPrograms) {
    count += p.ops.size();
  }
  for (const auto& chunks : denseOpsOf) {
    count += chunks.size();
  }
  return count;
}

std::size_t DmavPlan::opCount(SpanOpKind kind) const noexcept {
  std::size_t count = 0;
  for (const PlanBlock& b : blocks) {
    for (const SpanOp& op : b.ops) {
      count += op.kind == kind ? 1 : 0;
    }
  }
  for (const ColumnProgram& p : colPrograms) {
    for (const SpanOp& op : p.ops) {
      count += op.kind == kind ? 1 : 0;
    }
  }
  return count;
}

bool DmavPlan::fullyExclusive() const noexcept {
  if (denseK != 0) {
    return true;  // every amplitude is written exactly once, no zero-fill
  }
  for (const PlanBlock& b : blocks) {
    if (!b.zeroSpans.empty()) {
      return false;
    }
    for (const SpanOp& op : b.ops) {
      if (!isExclusiveWrite(op.kind)) {
        return false;
      }
    }
  }
  return true;
}

std::size_t DmavPlan::memoryBytes() const noexcept {
  std::size_t bytes = sizeof(DmavPlan);
  for (const PlanBlock& b : blocks) {
    bytes += b.ops.capacity() * sizeof(SpanOp) +
             b.zeroSpans.capacity() * sizeof(ZeroSpan);
  }
  bytes += blocks.capacity() * sizeof(PlanBlock);
  for (const ColumnProgram& p : colPrograms) {
    bytes += p.ops.capacity() * sizeof(SpanOp) +
             p.zeroSpans.capacity() * sizeof(ZeroSpan);
  }
  bytes += colPrograms.capacity() * sizeof(ColumnProgram);
  for (const auto& ids : blocksOf) {
    bytes += ids.capacity() * sizeof(std::uint32_t);
  }
  for (const auto& bufs : reduceFrom) {
    bytes += bufs.capacity() * sizeof(unsigned);
  }
  bytes += diag.capacity() * sizeof(Complex);
  bytes += extraRoots.capacity() * sizeof(extraRoots[0]);
  for (const auto& chunks : denseOpsOf) {
    bytes += chunks.capacity() * sizeof(DenseBlockOp);
  }
  bytes += denseOpsOf.capacity() * sizeof(denseOpsOf[0]);
  return bytes;
}

bool DmavPlan::validFor(const dd::Package& pkg) const noexcept {
  return generation == pkg.mNodeGeneration();
}

DmavPlan compileDmavPlan(const dd::mEdge& m, Qubit nQubits, unsigned threads,
                         PlanMode mode, const dd::Package* pkg) {
  FDD_TIMED_SCOPE("plan.compile");
  Stopwatch clock;
  DmavPlan plan;
  plan.root = m.n;
  plan.rootWeight = m.w;
  plan.nQubits = nQubits;
  plan.dim = Index{1} << nQubits;
  plan.threads = clampDmavThreads(nQubits, plan.dim == 1 ? 1 : threads);
  plan.mode = mode;
  plan.identFast = identFastPathEnabled();
  plan.generation = pkg != nullptr ? pkg->mNodeGeneration() : 0;
  if (mode == PlanMode::Row) {
    if (const auto dense = denseBlockProbe(m, nQubits)) {
      compileDense(*dense, plan);
    } else {
      compileRow(m, plan);
    }
  } else {
    compileCached(m, plan);
  }
  plan.compileSeconds = clock.seconds();
  return plan;
}

bool isDiagonalGateDD(const dd::mEdge& m) {
  if (m.isZero()) {
    return false;
  }
  if (m.isTerminal()) {
    return true;  // scalar: trivially diagonal
  }
  std::unordered_set<const dd::mNode*> seen;
  return isDiagonalRec(m.n, seen);
}

std::optional<DenseGateInfo> denseBlockProbe(const dd::mEdge& m,
                                             Qubit nQubits) {
  if (nQubits < 2 || m.isZero() || m.isTerminal() || m.n->ident ||
      m.n->v != nQubits - 1) {
    return std::nullopt;
  }

  // Classify each level: passive (matrix acts as the identity there) or
  // active. A level is passive iff *every* node at it has zero off-diagonal
  // children and e[0] == e[3] (node and weight) — then the sub-DD below is
  // independent of that qubit's bit, which is what makes the single-path
  // matrix extraction below valid for every run base at once.
  std::vector<char> activeLevel(static_cast<std::size_t>(nQubits), 0);
  {
    std::unordered_set<const dd::mNode*> seen;
    std::vector<const dd::mNode*> stack{m.n};
    seen.insert(m.n);
    while (!stack.empty()) {
      const dd::mNode* n = stack.back();
      stack.pop_back();
      if (n->ident) {
        continue;  // identity on [0, v]: all levels below are passive
      }
      const bool passive = n->e[1].isZero() && n->e[2].isZero() &&
                           n->e[0] == n->e[3] && !n->e[0].isZero();
      if (!passive) {
        activeLevel[static_cast<std::size_t>(n->v)] = 1;
      }
      for (const auto& e : n->e) {
        if (e.isZero()) {
          continue;
        }
        if (e.isTerminal()) {
          if (n->v != 0) {
            return std::nullopt;  // mid-tree terminal: not block-structured
          }
          continue;
        }
        if (e.n->v != n->v - 1) {
          return std::nullopt;  // level skip: bail
        }
        if (seen.insert(e.n).second) {
          stack.push_back(e.n);
        }
      }
    }
  }

  DenseGateInfo info;
  for (Qubit q = 0; q < nQubits; ++q) {
    if (activeLevel[static_cast<std::size_t>(q)] != 0) {
      if (info.k == 3) {
        return std::nullopt;  // more than 3 active qubits
      }
      info.qubits[info.k++] = q;
    }
  }
  if (info.k < 2) {
    return std::nullopt;  // single-qubit / diagonal: existing lowering wins
  }
  if ((Index{1} << info.qubits[0]) < kMinDenseRunLen) {
    return std::nullopt;  // runs too short to keep the column kernel busy
  }

  // Extract U by 4^k path descents: active levels branch on (row, col)
  // bits, passive levels always take e[0] (== e[3]).
  const unsigned dimU = 1u << info.k;
  bool denseRow = false;
  for (unsigned ra = 0; ra < dimU; ++ra) {
    unsigned nonzeros = 0;
    for (unsigned ca = 0; ca < dimU; ++ca) {
      Complex f = m.w;
      const dd::mNode* node = m.n;
      bool zero = false;
      for (Qubit level = nQubits - 1; level >= 0; --level) {
        unsigned child = 0;
        if (activeLevel[static_cast<std::size_t>(level)] != 0) {
          unsigned i = 0;
          while (info.qubits[i] != level) {
            ++i;
          }
          child = 2 * (ra >> i & 1u) + (ca >> i & 1u);
        }
        const dd::mEdge& e = node->e[child];
        if (e.isZero()) {
          zero = true;
          break;
        }
        f *= e.w;
        node = e.n;
      }
      info.u[ra * dimU + ca] = zero ? Complex{} : f;
      nonzeros += zero ? 0u : 1u;
    }
    denseRow = denseRow || nonzeros >= 2;
  }
  if (!denseRow) {
    return std::nullopt;  // diagonal/permutation: span ops are cheaper
  }
  return info;
}

DmavPlan compileDiagRunPlan(std::span<const dd::mEdge> gates, Qubit nQubits,
                            unsigned threads, const dd::Package* pkg) {
  assert(!gates.empty());
  FDD_TIMED_SCOPE("plan.compileDiagRun");
  Stopwatch clock;
  DmavPlan plan;
  plan.root = gates[0].n;
  plan.rootWeight = gates[0].w;
  plan.nQubits = nQubits;
  plan.dim = Index{1} << nQubits;
  plan.threads = clampDmavThreads(nQubits, plan.dim == 1 ? 1 : threads);
  plan.mode = PlanMode::Row;
  plan.identFast = identFastPathEnabled();
  plan.generation = pkg != nullptr ? pkg->mNodeGeneration() : 0;
  plan.fusedGates = gates.size();
  plan.extraRoots.reserve(gates.size() - 1);
  for (std::size_t g = 1; g < gates.size(); ++g) {
    plan.extraRoots.emplace_back(gates[g].n, gates[g].w);
  }

  plan.diag.resize(plan.dim);
  writeDiagRec(gates[0], nQubits - 1, 0, Complex{1.0}, plan.diag.data());
  for (std::size_t g = 1; g < gates.size(); ++g) {
    foldDiagRec(gates[g], nQubits - 1, 0, Complex{1.0}, plan.diag.data());
  }

  // Uniform exclusive-write sweeps: every block costs the same, so the plain
  // round-robin assignment is already balanced.
  const unsigned t = plan.threads;
  unsigned split = 1;
  if (t > 1) {
    while (split < kPlanSplitFactor && Index{t} * split * 2 <= plan.dim &&
           plan.dim / (Index{t} * split * 2) >= kMinPlanBlockRows) {
      split *= 2;
    }
  }
  const unsigned nBlocks = t * split;
  const Index rows = plan.dim / nBlocks;
  plan.blocks.resize(nBlocks);
  plan.blocksOf.assign(t, {});
  for (unsigned b = 0; b < nBlocks; ++b) {
    PlanBlock& block = plan.blocks[b];
    block.rowBegin = static_cast<Index>(b) * rows;
    block.rows = rows;
    block.ops.push_back(SpanOp{.iv = block.rowBegin, .iw = block.rowBegin,
                               .len = rows, .kind = SpanOpKind::DiagRun});
    block.cost = static_cast<double>(rows);
    plan.blocksOf[b % t].push_back(b);
  }
  plan.compileSeconds = clock.seconds();
  return plan;
}

namespace {

inline void executeOp(const SpanOp& op, const Complex* v, Complex* w,
                      const Complex* diag) {
  if (op.count > 1) {
    switch (op.kind) {
      case SpanOpKind::MacSpan:
      case SpanOpKind::IdentScale:
        simd::macStrided(w + op.iw, v + op.iv, op.f, op.count, op.len,
                         op.stride);
        return;
      case SpanOpKind::Mac2Span:
        simd::mac2Strided(w + op.iw, v + op.iv, op.f, v + op.iv2, op.f2,
                          op.count, op.len, op.stride);
        return;
      case SpanOpKind::DiagScale:
      case SpanOpKind::PermuteCopy:
        simd::scaleStrided(w + op.iw, v + op.iv, op.f, op.count, op.len,
                           op.stride);
        return;
      case SpanOpKind::BlockScale:
        simd::scaleStrided(w + op.iw, w + op.iv, op.f, op.count, op.len,
                           op.stride);
        return;
      case SpanOpKind::DiagRun:
        for (Index c = 0; c < op.count; ++c) {
          const Index at = c * op.stride;
          simd::mulPointwise(w + op.iw + at, v + op.iv + at,
                             diag + op.iw + at, op.len);
        }
        return;
    }
  }
  switch (op.kind) {
    case SpanOpKind::MacSpan:
    case SpanOpKind::IdentScale:
      simd::scaleAccumulate(w + op.iw, v + op.iv, op.f, op.len);
      break;
    case SpanOpKind::Mac2Span:
      simd::mac2(w + op.iw, v + op.iv, op.f, v + op.iv2, op.f2, op.len);
      break;
    case SpanOpKind::DiagScale:
    case SpanOpKind::PermuteCopy:
      simd::scale(w + op.iw, v + op.iv, op.f, op.len);
      break;
    case SpanOpKind::BlockScale:
      simd::scale(w + op.iw, w + op.iv, op.f, op.len);
      break;
    case SpanOpKind::DiagRun:
      simd::mulPointwise(w + op.iw, v + op.iv, diag + op.iw, op.len);
      break;
  }
}

}  // namespace

void replayPlan(const DmavPlan& plan, std::span<const Complex> v,
                std::span<Complex> w) {
  if (v.size() != plan.dim || w.size() != plan.dim) {
    throw std::invalid_argument("replayPlan: vector size mismatch");
  }
  if (v.data() == w.data()) {
    throw std::invalid_argument("replayPlan: V and W must not alias");
  }
  FDD_TIMED_SCOPE("dmav.replay");
  obs::PoolPhaseScope poolPhase{"dmav.replay"};
  auto& pool = par::globalPool();
  if (plan.denseK != 0) {
    // Dense-block plan: one pass over memory, kDenseTileAmps amplitudes per
    // span per denseColumns call. Bases are enumerated with the masked
    // counter (seeded by scatterBits for mid-range chunk starts).
    const unsigned m = 1u << plan.denseK;
    const Index carry = ~plan.denseFreeHiMask;
    pool.run(plan.threads, [&](unsigned i) {
      const Complex* in[8];
      Complex* out[8];
      for (const DenseBlockOp& chunk : plan.denseOpsOf[i]) {
        Index base = scatterBits(chunk.baseBegin, plan.denseFreeHiMask);
        for (Index c = 0; c < chunk.baseCount; ++c) {
          const Index end = chunk.runOffset + chunk.runLen;
          for (Index off = chunk.runOffset; off < end;
               off += kDenseTileAmps) {
            const Index tile = std::min(kDenseTileAmps, end - off);
            for (unsigned j = 0; j < m; ++j) {
              const Index at = base + plan.denseOffsets[j] + off;
              in[j] = v.data() + at;
              out[j] = w.data() + at;
            }
            simd::denseColumns(out, in, plan.denseU.data(), m, tile);
          }
          base = ((base | carry) + 1) & ~carry;
        }
      }
    });
    return;
  }
  pool.run(plan.threads, [&](unsigned i) {
    const Complex* vp = v.data();
    Complex* wp = w.data();
    const Complex* diag = plan.diag.data();
    for (const std::uint32_t id : plan.blocksOf[i]) {
      const PlanBlock& block = plan.blocks[id];
      for (const ZeroSpan& z : block.zeroSpans) {
        simd::zeroFill(wp + z.begin, z.len);
      }
      for (const SpanOp& op : block.ops) {
        executeOp(op, vp, wp, diag);
      }
    }
  });
}

DmavCacheStats replayPlanCached(const DmavPlan& plan,
                                std::span<const Complex> v,
                                std::span<Complex> w,
                                DmavWorkspace& workspace) {
  if (v.size() != plan.dim || w.size() != plan.dim) {
    throw std::invalid_argument("replayPlanCached: vector size mismatch");
  }
  if (v.data() == w.data()) {
    throw std::invalid_argument("replayPlanCached: V and W must not alias");
  }
  FDD_TIMED_SCOPE("dmav.replayCached");
  obs::PoolPhaseScope poolPhase{"dmav.replayCached"};
  DmavCacheStats stats;
  stats.tasks = plan.tasks;
  stats.cacheHits = plan.cacheHits;
  stats.buffers = plan.numBuffers;

  workspace.ensure(std::max<std::size_t>(plan.numBuffers, 1), plan.dim);
  std::vector<Complex*> bufs(std::max<std::size_t>(plan.numBuffers, 1));
  for (std::size_t b = 0; b < bufs.size(); ++b) {
    bufs[b] = workspace.buffer(b, plan.dim);
  }

  auto& pool = par::globalPool();
  // Phase 1: per-thread programs into the shared partial-output buffers.
  pool.run(plan.threads, [&](unsigned i) {
    const ColumnProgram& prog = plan.colPrograms[i];
    Complex* buf = bufs[prog.buffer];
    for (const ZeroSpan& z : prog.zeroSpans) {
      simd::zeroFill(buf + z.begin, z.len);
    }
    for (const SpanOp& op : prog.ops) {
      executeOp(op, v.data(), buf, nullptr);  // DiagRun never cached-mode
    }
  });
  // Phase 2: reduce the buffers into W, summing only written blocks.
  pool.run(plan.threads, [&](unsigned i) {
    const Index lo = static_cast<Index>(i) * plan.h;
    bool first = true;
    for (const unsigned b : plan.reduceFrom[i]) {
      if (first) {
        std::copy(bufs[b] + lo, bufs[b] + lo + plan.h, w.data() + lo);
        first = false;
      } else {
        simd::accumulate(w.data() + lo, bufs[b] + lo, plan.h);
      }
    }
    if (first) {
      simd::zeroFill(w.data() + lo, plan.h);
    }
  });
  return stats;
}

}  // namespace fdd::flat
