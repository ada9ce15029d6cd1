#pragma once
// DMAV — multiplication of a DD-based gate matrix by an array-based state
// vector (Section 3.2, Algorithm 1). The matrix DD provides O(1) amortized
// indexing (vs O(n) per amplitude for plain array simulators); the flat
// vector avoids the exponential node blow-up of irregular DD states.
//
// Terminology follows the paper: with t threads over n qubits, sub-matrices
// are h x h (h = 2^n / t); `Assign` splits the matrix down to the border
// level n - log2(t) - 1 producing per-thread multiplication tasks; `Run`
// executes one task recursively, bottoming out in one MAC per terminal path.

#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "dd/edge.hpp"

namespace fdd::flat {

/// One multiplication task produced by Assign: a sub-matrix DD edge, the
/// start index of its paired sub-vector, and the weight product accumulated
/// along the DD path from the root to (but excluding) this edge.
struct DmavTask {
  dd::mEdge m{};
  Index start = 0;   // row space: start in V; column space: start in partial
  Complex f{1.0};
};

/// Clamps a requested thread count to a power of two that is >= 1,
/// <= 2^nQubits and <= the global pool size.
[[nodiscard]] unsigned clampDmavThreads(Qubit nQubits, unsigned threads);

/// Row-space task assignment (Algorithm 1, Assign): thread u computes output
/// rows [u*h, (u+1)*h).
struct RowAssignment {
  unsigned threads = 1;
  Index h = 0;
  Qubit borderLevel = -1;
  std::vector<std::vector<DmavTask>> perThread;
};
[[nodiscard]] RowAssignment assignRowSpace(const dd::mEdge& m, Qubit nQubits,
                                           unsigned threads);

/// Ablation hook: enables/disables the identity-subtree SIMD fast path in
/// runTask. The paper's Run recurses down to scalar MACs; our fast path
/// services identity subtrees with one SIMD scale-accumulate, which shifts
/// the cached-vs-uncached balance (see bench/fig14_caching). Default: on.
void setIdentFastPath(bool enabled) noexcept;
[[nodiscard]] bool identFastPathEnabled() noexcept;

/// The Run kernel (Algorithm 1, lines 16-22): accumulates
/// f * (sub-matrix under mr) * V[iv..] into W[iw..]. `level` is the level of
/// mr's node. Thread-safe for disjoint W ranges.
void runTask(const dd::mEdge& mr, const Complex* v, Complex* w, Qubit level,
             Index iv, Index iw, Complex f);

/// DMAV without caching (Algorithm 1: Assign, then a recursive Run per
/// task): W = M * V on `threads` workers. W is overwritten. V and W must
/// both have size 2^nQubits and must not alias.
void dmav(const dd::mEdge& m, Qubit nQubits, std::span<const Complex> v,
          std::span<Complex> w, unsigned threads);

}  // namespace fdd::flat
