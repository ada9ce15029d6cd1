#pragma once
// The DD package: the single owner of all decision-diagram state (complex
// table, node pools, unique tables, compute tables, identity cache) and the
// home of every DD operation. This is our from-scratch re-implementation of
// the QMDD substrate that DDSIM [99] builds on; FlatDD's DMAV reads matrix
// DDs produced here.
//
// Thread-safety: a Package is single-threaded by design. Everything that
// creates nodes or touches a table (operations, node construction,
// reference counts, GC) needs exclusive access; the owner guarantees it
// (each service session owns its package and runs its jobs one at a time).
// Concurrent *reads* of finished DDs (what DMAV and the parallel DD-to-array
// conversion do) are safe while no one writes, because nodes are immutable
// after insertion.

#include <cstddef>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "dd/compute_table.hpp"
#include "dd/edge.hpp"
#include "dd/node_manager.hpp"
#include "qc/gate.hpp"

namespace fdd::dd {

struct PackageStats {
  std::size_t vNodesLive = 0;
  std::size_t mNodesLive = 0;
  std::size_t peakVNodes = 0;
  std::size_t peakMNodes = 0;
  std::size_t gcRuns = 0;
  std::size_t gcCollected = 0;
  std::size_t memoryBytes = 0;  // arenas + tables, approximate
  // Compute-table health, summed over the four memo tables.
  std::size_t computeHits = 0;
  std::size_t computeMisses = 0;
};

class Package {
 public:
  /// A package simulates circuits of exactly `nQubits` qubits. `tolerance`
  /// is the complex-table merging tolerance.
  explicit Package(Qubit nQubits, fp tolerance = 1e-10);

  [[nodiscard]] Qubit numQubits() const noexcept { return nQubits_; }

  // ---- canonical weights -------------------------------------------------
  [[nodiscard]] Complex canonical(Complex z) { return ctable_.lookup(z); }

  // ---- node construction (normalizing) ------------------------------------
  /// Builds (or finds) the canonical vector node at `level` with the given
  /// children, returning a normalized edge. Children must satisfy the edge
  /// invariants already.
  [[nodiscard]] vEdge makeVectorNode(Qubit level, std::array<vEdge, 2> e);
  [[nodiscard]] mEdge makeMatrixNode(Qubit level, std::array<mEdge, 4> e);

  // ---- states --------------------------------------------------------------
  /// |0...0>.
  [[nodiscard]] vEdge makeZeroState();
  /// Computational basis state |bits>.
  [[nodiscard]] vEdge makeBasisState(Index bits);

  // ---- gates ---------------------------------------------------------------
  /// Identity operator on qubits [0, level]; cached and GC-protected.
  [[nodiscard]] mEdge makeIdent(Qubit level);
  /// DD for a (multi-)controlled single-qubit gate on the full register.
  [[nodiscard]] mEdge makeGateDD(const qc::Matrix2& u, Qubit target,
                                 std::span<const Qubit> controls = {});
  [[nodiscard]] mEdge makeGateDD(const qc::Operation& op);

  // ---- operations -----------------------------------------------------------
  [[nodiscard]] vEdge add(const vEdge& a, const vEdge& b, Qubit level);
  [[nodiscard]] mEdge add(const mEdge& a, const mEdge& b, Qubit level);
  /// Matrix-vector product over the full register (DD-based simulation step).
  [[nodiscard]] vEdge multiply(const mEdge& m, const vEdge& v);
  /// Matrix-matrix product (DDMM; used by gate fusion).
  [[nodiscard]] mEdge multiply(const mEdge& a, const mEdge& b);
  /// Conjugate transpose M^dagger (used for uncomputation and equivalence
  /// checking: U unitary iff U^dagger U == I).
  [[nodiscard]] mEdge adjoint(const mEdge& m);

  /// Kronecker product: `top` acts on the qubits above `bottomQubits`
  /// (result level = top's levels shifted up), `bottom` on the low qubits.
  /// Both for states (|top> (x) |bottom>) and operators.
  [[nodiscard]] vEdge kronecker(const vEdge& top, const vEdge& bottom,
                                Qubit bottomQubits);
  [[nodiscard]] mEdge kronecker(const mEdge& top, const mEdge& bottom,
                                Qubit bottomQubits);

  /// Builds a matrix DD from a dense row-major 2^k x 2^k matrix acting on
  /// the k lowest qubits (identity elsewhere is NOT appended; k must equal
  /// numQubits() unless you kronecker it yourself).
  [[nodiscard]] mEdge fromDenseMatrix(std::span<const Complex> rowMajor);

  /// State approximation [97]: removes the lowest-contribution subtrees
  /// until at most `budget` of squared norm is lost, then renormalizes.
  /// Returns the approximated state; useful to cap DD growth at a known
  /// fidelity cost. The input edge is not modified.
  [[nodiscard]] vEdge approximate(const vEdge& state, fp budget);

  // ---- reference counting & GC ----------------------------------------------
  void incRef(const vEdge& e) noexcept { incRefNode(e.n); }
  void decRef(const vEdge& e) noexcept { decRefNode(e.n); }
  void incRef(const mEdge& e) noexcept { incRefNode(e.n); }
  void decRef(const mEdge& e) noexcept { decRefNode(e.n); }

  /// Reclaims unreferenced nodes when the tables are crowded (always when
  /// `force`). Never call while operation intermediates are unprotected.
  void garbageCollect(bool force = false);

  // ---- export / import -------------------------------------------------------
  /// Sequential DD-to-array conversion (the DDSIM baseline of Fig. 13).
  /// `out` must have size 2^numQubits().
  void toArray(const vEdge& state, std::span<Complex> out) const;
  [[nodiscard]] AlignedVector<Complex> toArray(const vEdge& state) const;

  /// Builds a DD from a dense amplitude vector of size 2^numQubits().
  [[nodiscard]] vEdge fromArray(std::span<const Complex> amplitudes);

  /// Amplitude of basis state `i` via one root-to-terminal walk.
  [[nodiscard]] Complex getAmplitude(const vEdge& state, Index i) const;

  /// <a|b>; both edges must be states of this package.
  [[nodiscard]] Complex innerProduct(const vEdge& a, const vEdge& b);

  /// <dd|flat>: inner product between a DD state and a flat array without
  /// materializing either in the other representation. Used to validate
  /// FlatDD's phase handoff.
  [[nodiscard]] Complex innerProduct(const vEdge& a,
                                     std::span<const Complex> flat) const;

  /// Probability that qubit `q` measures |1> in `state` (sum over the
  /// corresponding subtrees; no conversion).
  [[nodiscard]] fp probabilityOfOne(const vEdge& state, Qubit q) const;

  /// Graphviz dot rendering of a vector DD (small states; debugging aid).
  [[nodiscard]] std::string toDot(const vEdge& state) const;

  /// Samples `shots` basis states from |amplitude|^2 by descending the DD
  /// (weak simulation [36]: no conversion to an array, cost O(shots * n)
  /// after one norm-annotation pass). The state should be normalized.
  template <typename Rng>
  [[nodiscard]] std::vector<Index> sample(const vEdge& state,
                                          std::size_t shots, Rng& rng) const {
    std::vector<Index> out;
    out.reserve(shots);
    const auto norms = annotateSubtreeNorms(state);
    for (std::size_t s = 0; s < shots; ++s) {
      out.push_back(sampleOnce(state, norms, rng));
    }
    return out;
  }

  // ---- introspection ----------------------------------------------------------
  /// Number of unique nodes reachable from `e` (excluding the terminal);
  /// the paper's "DD size" s_i monitored by the EWMA trigger.
  [[nodiscard]] std::size_t nodeCount(const vEdge& e) const;
  [[nodiscard]] std::size_t nodeCount(const mEdge& e) const;

  [[nodiscard]] PackageStats stats() const;

  /// Overrides (and pins) the automatic GC trigger (tests /
  /// memory-constrained runs); disables the adaptive back-off.
  void setGcThreshold(std::size_t nodes) noexcept {
    gcThreshold_ = nodes;
    gcThresholdPinned_ = true;
  }
  /// Overrides the complex-table rebuild trigger.
  void setComplexTableRebuildThreshold(std::size_t entries) noexcept {
    ctableRebuildThreshold_ = entries;
  }

  /// Debug/test invariant scan over both unique tables: no duplicate
  /// (level, children) pairs and every node's weights normalized (largest-
  /// magnitude weight exactly 1, zeros canonical). O(live nodes); intended
  /// for tests.
  [[nodiscard]] bool checkCanonical() const;

 private:
  template <typename NodeT>
  [[nodiscard]] Edge<NodeT> normalize(Qubit level,
                                      std::array<Edge<NodeT>, NodeT::kRadix> e,
                                      NodePool<NodeT>& pool,
                                      UniqueTable<NodeT>& table);

  static void incRefNode(vNode* n) noexcept;
  static void incRefNode(mNode* n) noexcept;
  static void decRefNode(vNode* n) noexcept;
  static void decRefNode(mNode* n) noexcept;

  [[nodiscard]] vEdge addRec(const vEdge& a, const vEdge& b, Qubit level);
  [[nodiscard]] mEdge addRec(const mEdge& a, const mEdge& b, Qubit level);
  [[nodiscard]] vEdge mulRec(const mEdge& m, const vEdge& v, Qubit level);
  [[nodiscard]] mEdge mulRec(const mEdge& a, const mEdge& b, Qubit level);

  void toArrayRec(const vEdge& e, Qubit level, Index offset, Complex factor,
                  std::span<Complex> out) const;
  [[nodiscard]] vEdge fromArrayRec(std::span<const Complex> amps, Qubit level);

  /// Squared norm of every subtree reachable from `state` (keyed by node).
  [[nodiscard]] std::unordered_map<const vNode*, fp> annotateSubtreeNorms(
      const vEdge& state) const;

  template <typename Rng>
  [[nodiscard]] Index sampleOnce(
      const vEdge& state, const std::unordered_map<const vNode*, fp>& norms,
      Rng& rng) const {
    Index result = 0;
    vEdge e = state;
    for (Qubit level = nQubits_ - 1; level >= 0; --level) {
      if (e.isZero()) {
        break;  // degenerate (zero state): report |0...0>
      }
      const vEdge& lo = e.n->e[0];
      const vEdge& hi = e.n->e[1];
      auto branchWeight = [&](const vEdge& child) -> fp {
        if (child.isZero()) {
          return 0;
        }
        const fp sub = child.isTerminal() ? 1.0 : norms.at(child.n);
        return norm2(child.w) * sub;
      };
      const fp w0 = branchWeight(lo);
      const fp w1 = branchWeight(hi);
      const fp total = w0 + w1;
      const bool takeOne =
          total > 0 && rng.uniform() * total >= w0;
      if (takeOne) {
        result |= Index{1} << level;
        e = hi;
      } else {
        e = lo;
      }
    }
    return result;
  }

  Qubit nQubits_;
  ComplexTable ctable_;

  NodePool<vNode> vPool_;
  NodePool<mNode> mPool_;
  UniqueTable<vNode> vUnique_;
  UniqueTable<mNode> mUnique_;

  ComputeTable<AddKey<vNode>, vEdge> vAddTable_;
  ComputeTable<AddKey<mNode>, mEdge> mAddTable_;
  ComputeTable<MulKey<mNode, vNode>, vEdge> mvTable_;
  ComputeTable<MulKey<mNode, mNode>, mEdge> mmTable_;

  std::vector<mEdge> identCache_;  // [level] -> identity on qubits [0..level]

  std::size_t peakVNodes_ = 0;
  std::size_t peakMNodes_ = 0;
  std::size_t gcRuns_ = 0;
  std::size_t gcCollected_ = 0;
  std::size_t gcThreshold_ = 1u << 16;
  bool gcThresholdPinned_ = false;
  std::size_t ctableRebuildThreshold_ = 1u << 18;
};

}  // namespace fdd::dd
