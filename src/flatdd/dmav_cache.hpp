#pragma once
// DMAV with caching (Section 3.2.2, Algorithm 2). Threads evaluate the gate
// matrix in *column* space so that one thread repeatedly multiplies the same
// input sub-vector by different sub-matrices; repeated sub-matrix nodes then
// become cache hits that are serviced by one SIMD scalar multiplication
// instead of a full sub-DMAV (Fig. 6). Per-thread partial outputs land in
// shared buffers (threads with non-overlapping row segments share one
// buffer) and are reduced into W with SIMD adds.

#include <vector>

#include "flatdd/dmav.hpp"

namespace fdd::flat {

/// Column-space task assignment (Algorithm 2, AssignCache): thread u
/// multiplies matrix columns [u*h, (u+1)*h) by V[u*h, (u+1)*h); task.start
/// is the row offset of the result inside the thread's partial output.
struct ColumnAssignment {
  unsigned threads = 1;
  Index h = 0;
  Qubit borderLevel = -1;
  std::vector<std::vector<DmavTask>> perThread;
  std::vector<unsigned> bufferOf;  // thread -> partial-output buffer index
  unsigned numBuffers = 0;
};
[[nodiscard]] ColumnAssignment assignColumnSpace(const dd::mEdge& m,
                                                 Qubit nQubits,
                                                 unsigned threads);

/// Statistics of one cached DMAV execution.
struct DmavCacheStats {
  std::size_t tasks = 0;
  std::size_t cacheHits = 0;
  std::size_t buffers = 0;
};

/// Reusable workspace so per-gate application does not reallocate the
/// partial-output buffers (each is a full 2^n vector).
class DmavWorkspace {
 public:
  /// Returns buffer `i`, allocated/zeroed to `dim` elements.
  [[nodiscard]] Complex* buffer(std::size_t i, Index dim);
  void ensure(std::size_t count, Index dim);
  [[nodiscard]] std::size_t memoryBytes() const noexcept;

 private:
  std::vector<AlignedVector<Complex>> buffers_;
};

/// DMAV with caching (Algorithm 2: AssignCache, then a recursive Run with a
/// per-thread sub-product cache, then the buffer reduction): W = M * V.
/// V and W must have size 2^nQubits and must not alias. Pass a persistent
/// workspace to amortize buffer allocation.
DmavCacheStats dmavCached(const dd::mEdge& m, Qubit nQubits,
                          std::span<const Complex> v, std::span<Complex> w,
                          unsigned threads, DmavWorkspace& workspace);

}  // namespace fdd::flat
