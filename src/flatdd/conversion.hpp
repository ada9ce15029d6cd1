#pragma once
// Parallel DD-to-array conversion (Section 3.1.2, Fig. 4) with both
// optimizations of the paper:
//   * load balancing   — threads are never split across a zero edge; all of
//     them follow the nonzero side (Fig. 4a);
//   * scalar multiplication — when a node's two children are the same node,
//     the two halves are scalar multiples: all threads convert the first
//     half, then SIMD fills the second half by scaling (Fig. 4b).

#include <span>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "dd/edge.hpp"

namespace fdd::flat {

struct ConversionStats {
  std::size_t fillTasks = 0;    // sequential DFS fill jobs executed
  std::size_t scaleTasks = 0;   // SIMD scalar-multiplication jobs executed
  std::size_t zeroSkips = 0;    // zero edges pruned during planning
};

/// Converts the state DD rooted at `state` (over `nQubits` qubits) into the
/// flat array `out` (size must be 2^nQubits) using `threads` workers.
/// `threads` is clamped to the largest power of two <= min(threads, pool
/// size). Returns execution statistics.
ConversionStats ddToArrayParallel(const dd::vEdge& state, Qubit nQubits,
                                  std::span<Complex> out, unsigned threads);

/// Convenience overload allocating the output array.
[[nodiscard]] AlignedVector<Complex> ddToArrayParallel(const dd::vEdge& state,
                                                       Qubit nQubits,
                                                       unsigned threads);

}  // namespace fdd::flat
