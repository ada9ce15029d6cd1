#pragma once
// DMAV plan compiler. A DmavPlan is a gate DD lowered — once — into flat,
// replayable span operations, so that applying the same gate matrix again
// becomes linear SIMD replay instead of pointer-chasing DD recursion
// (assignRec/runTask). Deep circuits apply the same few gate DDs hundreds of
// times (QFT rotation ladders, supremacy layers, fused DMAV groups), which
// is what makes the one-time lowering pay for itself; see plan_cache.hpp for
// the bounded LRU that amortizes compilation across gate applications.
//
// Op taxonomy (all ops act on spans of 2^n-element vectors):
//   MacSpan      w[iw..] += f * v[iv..]   accumulating MAC from terminal
//                                         paths (may share output rows)
//   IdentScale   w[iw..] += f * v[iv..]   accumulating span from an identity
//                                         subtree (one op per 2^(l+1) block)
//   Mac2Span     w[iw..] += f * v[iv..]   two-term fused MAC: adjacent
//                         + f2 * v[iv2..] accumulates into the same output
//                                         span fuse so w is read+written once
//                                         (dense 2x2 rows, e.g. Hadamard)
//   DiagScale    w[iw..]  = f * v[iv..]   exclusive write, iv == iw — the
//                                         compiler proves no other op touches
//                                         these rows, so replay skips both
//                                         the zero-fill and the read of w.
//                                         Diagonal DDs (RZ/CZ/CP/T layers)
//                                         lower entirely to this op.
//   PermuteCopy  w[iw..]  = f * v[iv..]   exclusive write, iv != iw —
//                                         permutation DDs (X, SWAP, CX).
//   BlockScale   b[iw..]  = f * b[iv..]   cached-mode only: reuse of an
//                                         already-computed sub-product block
//                                         inside the thread's partial-output
//                                         buffer (Alg. 2 line 7, decided at
//                                         compile time).
//   DiagRun      w[iw..]  = v[iv..] .*    exclusive write, iv == iw — a *run*
//                          diag[iw..]     of consecutive diagonal gates
//                                         collapsed into one pointwise
//                                         product against the plan's
//                                         precomputed combined-phase table
//                                         (see compileDiagRunPlan). k gates
//                                         become one memory sweep instead of
//                                         k DiagScale passes.
//
// Multi-qubit dense gates take a third shape: when denseBlockProbe
// recognizes the gate as a 2-3 qubit dense matrix acting on high qubits
// (every other level passive), the plan compiles to DenseBlock tiles instead
// of span ops — plan.denseK != 0, plan.denseOpsOf replaces blocks/blocksOf,
// and replay applies the 4x4/8x8 matrix to 2^k parallel runs per 64-amp
// tile in a single pass over memory (gather-free: run bases are enumerated
// with the scatterBits masked counter).
//
// Every op additionally carries a comb shape (count, stride): the op repeats
// `count` times with all offsets advancing by `stride` amplitudes per
// repetition (count == 1 for plain spans). The collapse pass turns the long
// arithmetic runs that low-qubit gates produce — e.g. RZ(q0)'s alternating
// per-element DiagScales — into two strided comb ops per block, so replay
// cost stays O(ops) instead of O(2^n) dispatches.
//
// Balanced replay: row-mode plans are compiled at sub-block granularity
// (up to kPlanSplitFactor row blocks per thread) and the blocks are packed
// onto threads by longest-processing-time order of their modeled cost. On
// irregular DDs whose terminal paths concentrate in a few row blocks this
// removes the per-thread skew behind the Fig. 12 scalability cliff; row
// blocks own disjoint output rows, so any assignment is race-free.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "flatdd/dmav.hpp"
#include "flatdd/dmav_cache.hpp"

namespace fdd::flat {

enum class SpanOpKind : std::uint8_t {
  MacSpan,
  IdentScale,
  Mac2Span,
  DiagScale,
  PermuteCopy,
  BlockScale,
  DiagRun,
};

[[nodiscard]] const char* toString(SpanOpKind kind) noexcept;

/// True for ops that overwrite their output span (no read-modify-write).
[[nodiscard]] constexpr bool isExclusiveWrite(SpanOpKind kind) noexcept {
  return kind == SpanOpKind::DiagScale || kind == SpanOpKind::PermuteCopy ||
         kind == SpanOpKind::BlockScale || kind == SpanOpKind::DiagRun;
}

struct SpanOp {
  Index iv = 0;     // input offset (v; buffer for BlockScale)
  Index iw = 0;     // output offset (w; buffer in cached mode)
  Index len = 0;    // span length in amplitudes
  Index iv2 = 0;    // second input offset (Mac2Span only)
  Index count = 1;  // comb repetitions (1 = plain contiguous span)
  Index stride = 0; // offset advance per repetition (0 when count == 1)
  Complex f{1.0};
  Complex f2{};     // second coefficient (Mac2Span only)
  SpanOpKind kind = SpanOpKind::MacSpan;

  /// Last output amplitude written is extent() - 1.
  [[nodiscard]] constexpr Index extent() const noexcept {
    return iw + (count - 1) * stride + len;
  }
};

struct ZeroSpan {
  Index begin = 0;
  Index len = 0;
};

/// One row block of a row-mode plan: ops writing rows [rowBegin,
/// rowBegin + rows). Blocks never share output rows, so threads can execute
/// any subset of blocks without synchronization.
struct PlanBlock {
  Index rowBegin = 0;
  Index rows = 0;
  std::vector<SpanOp> ops;
  std::vector<ZeroSpan> zeroSpans;  // zeroed before the ops run
  double cost = 0;                  // modeled MACs, drives LPT packing
};

/// One chunk of a dense-block plan: applies the plan's 2^k x 2^k matrix to
/// `baseCount` run bases starting at logical counter value `baseBegin`
/// (scattered into denseFreeHiMask), touching run amplitudes [runOffset,
/// runOffset + runLen) of each base. Chunks never share amplitudes, so any
/// thread assignment is race-free.
struct DenseBlockOp {
  Index baseBegin = 0;
  Index baseCount = 0;
  Index runOffset = 0;
  Index runLen = 0;
};

/// A multi-qubit dense gate recognized by denseBlockProbe: the matrix acts
/// as the 2^k x 2^k dense `u` (row-major; bit i of a row/column index is
/// the bit of qubits[i]) on `k` active qubits and as the identity on every
/// other qubit. All scalar weight is folded into `u`.
struct DenseGateInfo {
  unsigned k = 0;
  std::array<Qubit, 3> qubits{};  // active qubits, ascending
  std::array<Complex, 64> u{};    // 2^k x 2^k row-major
};

/// One thread's compiled program in cached (column-space) mode.
struct ColumnProgram {
  unsigned buffer = 0;  // workspace buffer this thread writes
  std::vector<SpanOp> ops;
  std::vector<ZeroSpan> zeroSpans;
};

enum class PlanMode : std::uint8_t {
  Row,     // Algorithm 1 (uncached DMAV)
  Cached,  // Algorithm 2 (column space, sub-product reuse, buffer reduce)
};

/// A compiled gate: self-contained op streams holding no DD pointers, so a
/// plan stays replayable whatever happens to the gate DD it came from.
struct DmavPlan {
  // ---- shape of the compiled function -----------------------------------
  Qubit nQubits = 0;
  unsigned threads = 1;  // clamped; width of every replay
  PlanMode mode = PlanMode::Row;
  bool identFast = true;  // identity-subtree lowering was enabled

  Index dim = 0;

  /// Gates collapsed into this plan: 1 for single-gate plans, the run length
  /// for compileDiagRunPlan.
  std::size_t fusedGates = 1;

  // ---- row mode ---------------------------------------------------------
  std::vector<PlanBlock> blocks;
  std::vector<std::vector<std::uint32_t>> blocksOf;  // thread -> block ids
  /// Combined per-index phases of a fused diagonal run; DiagRun ops multiply
  /// the state pointwise against this table.
  AlignedVector<Complex> diag;

  // ---- dense-block mode (denseK != 0; replaces blocks/blocksOf) ---------
  unsigned denseK = 0;              // active qubits (2 or 3); 0 = not dense
  std::array<Complex, 64> denseU{};   // 2^k x 2^k row-major
  std::array<Index, 8> denseOffsets{};  // amp offset of each active pattern
  Index denseRunLen = 0;            // 2^q0 contiguous amps per base and span
  Index denseFreeHiMask = 0;        // free (passive) bits above the run
  std::vector<std::vector<DenseBlockOp>> denseOpsOf;  // thread -> chunks

  // ---- cached mode ------------------------------------------------------
  Index h = 0;  // row-block height = 2^n / threads
  unsigned numBuffers = 0;
  std::vector<ColumnProgram> colPrograms;          // one per thread
  std::vector<std::vector<unsigned>> reduceFrom;   // block -> buffers to sum
  std::size_t tasks = 0;
  std::size_t cacheHits = 0;  // BlockScale ops (compile-time Alg. 2 hits)

  double compileSeconds = 0;

  [[nodiscard]] std::size_t opCount() const noexcept;
  [[nodiscard]] std::size_t opCount(SpanOpKind kind) const noexcept;
  /// True when every op of a row-mode plan writes exclusively (diagonal or
  /// permutation gate): replay then performs no zero-fill at all.
  [[nodiscard]] bool fullyExclusive() const noexcept;
  [[nodiscard]] std::size_t memoryBytes() const noexcept;
};

/// Sub-blocks per thread that row-mode compilation aims for (the balancing
/// granularity). The compiler backs off to fewer when 2^n is too small.
inline constexpr unsigned kPlanSplitFactor = 4;
/// Minimum rows per sub-block; finer splits would cut identity/diagonal
/// spans into sub-SIMD fragments.
inline constexpr Index kMinPlanBlockRows = 32;
/// Minimum contiguous run (2^q0 amplitudes) for the DenseBlock lowering;
/// shorter runs would leave the SIMD column kernel mostly in its tail.
inline constexpr Index kMinDenseRunLen = 16;
/// DenseBlock tile: amplitudes per span processed per denseColumns call.
/// With m = 8 spans of in + out this is 8 * 64 * 2 * 16 B = 16 KiB of
/// working set — comfortably L1-resident while the 8x8 matrix stays in
/// registers. Run splits for thread balance land on tile boundaries.
inline constexpr Index kDenseTileAmps = 64;
/// Upper bound on gates fused into one diagonal run: bounds the PlanCache
/// key (per-gate root signature) and the pin list per cached plan.
inline constexpr std::size_t kMaxDiagRunGates = 64;

/// Lowers the gate DD `m` (at `nQubits`, for `threads` workers) into a
/// replayable plan.
[[nodiscard]] DmavPlan compileDmavPlan(const dd::mEdge& m, Qubit nQubits,
                                       unsigned threads, PlanMode mode);

/// True when the gate DD is diagonal: every node's off-diagonal children
/// (e[1], e[2]) are zero. Such gates commute pointwise, so consecutive
/// diagonal gates fuse into one DiagRun sweep (compileDiagRunPlan).
[[nodiscard]] bool isDiagonalGateDD(const dd::mEdge& m);

/// Recognizes `m` as a k-qubit dense gate (k in {2, 3}) acting on high
/// qubits: every non-active level is passive (e[1], e[2] zero and
/// e[0] == e[3], i.e. the matrix is the identity there), at least one row
/// of the extracted 2^k x 2^k matrix has two or more nonzeros (diagonal and
/// permutation gates keep their cheaper span lowering), and the lowest
/// active qubit leaves a contiguous run of >= kMinDenseRunLen amplitudes.
[[nodiscard]] std::optional<DenseGateInfo> denseBlockProbe(const dd::mEdge& m,
                                                           Qubit nQubits);

/// Lowers a run of >= 1 consecutive *diagonal* gates (isDiagonalGateDD) into
/// one DiagRun plan: the combined per-index phases of all gates are folded
/// into plan.diag at compile time, so replay is a single pointwise-product
/// sweep regardless of the run length. Gates apply left-to-right (gates[0]
/// first); diagonal matrices commute, so the fold order is immaterial.
[[nodiscard]] DmavPlan compileDiagRunPlan(std::span<const dd::mEdge> gates,
                                          Qubit nQubits, unsigned threads);

/// Replays a row-mode plan: W = M * V. V and W must have size 2^n and must
/// not alias.
void replayPlan(const DmavPlan& plan, std::span<const Complex> v,
                std::span<Complex> w);

/// Replays a cached-mode plan through `workspace` partial-output buffers.
DmavCacheStats replayPlanCached(const DmavPlan& plan,
                                std::span<const Complex> v,
                                std::span<Complex> w,
                                DmavWorkspace& workspace);

}  // namespace fdd::flat
