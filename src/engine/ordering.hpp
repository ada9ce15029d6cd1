#pragma once
// Scored static qubit ordering (arXiv:2512.01186) and the ordered-backend
// decorator that makes it invisible to callers.
//
// DD size is hostage to variable order: two qubits that interact want to
// sit on adjacent DD levels, and the input circuit's labeling rarely puts
// them there. scoreOrdering() builds a gate-adjacency interaction score at
// circuit-load time and greedily grows a placement that keeps strongly
// interacting qubits close. The engine arms this as the "ordering" pass:
// on the first gate batch it wraps the backend in an OrderedBackend that
// relabels gate targets/controls into the scored order on the way in and
// maps amplitudes, state vectors and samples back through the inverse
// permutation on the way out — so the CLI, service sessions and benches
// never see internal order.

#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "engine/backend.hpp"
#include "qc/circuit.hpp"

namespace fdd::engine {

/// A bijection between logical qubits (the circuit's labels) and internal
/// levels (the backend's labels; for every backend here, internal qubit i
/// lives on DD level / index bit i).
struct QubitOrdering {
  std::vector<Qubit> levelOfQubit;  // logical qubit -> internal level
  std::vector<Qubit> qubitAtLevel;  // internal level -> logical qubit

  [[nodiscard]] static QubitOrdering identity(Qubit n);
  /// Builds the inverse array from `qubitAtLevel` (which must be a
  /// permutation of [0, n)).
  [[nodiscard]] static QubitOrdering fromQubitAtLevel(
      std::vector<Qubit> qubitAtLevel);

  [[nodiscard]] Qubit numQubits() const noexcept {
    return static_cast<Qubit>(levelOfQubit.size());
  }
  [[nodiscard]] bool isIdentity() const noexcept;

  /// Basis-state index maps: bit q of a logical index becomes bit
  /// levelOfQubit[q] of the internal index (and back).
  [[nodiscard]] Index mapIndex(Index logical) const noexcept;
  [[nodiscard]] Index unmapIndex(Index internal) const noexcept;

  /// Relabels target and controls into internal order (controls re-sorted —
  /// the Operation invariant).
  [[nodiscard]] qc::Operation mapOperation(const qc::Operation& op) const;
  [[nodiscard]] qc::Circuit mapCircuit(const qc::Circuit& circuit) const;

  /// "q3 q0 q2 q1" — qubitAtLevel from the top level down, for pass notes
  /// and reports.
  [[nodiscard]] std::string toString() const;
};

/// Scores qubit interaction over `circuit` (control-target pairs weigh 1,
/// control-control pairs 0.5) and greedily grows a double-ended placement
/// that keeps heavy pairs on adjacent levels. Deterministic: ties break on
/// first gate use, then on qubit index. Qubits that never interact keep
/// their relative input order at the back.
[[nodiscard]] QubitOrdering scoreOrdering(const qc::Circuit& circuit);

/// Wraps `inner` so callers keep speaking logical qubit labels while the
/// backend simulates in `ordering`'s internal order. fillReport() sets
/// RunReport::ordering to the permutation (logical qubit at each internal
/// level).
[[nodiscard]] std::unique_ptr<Backend> makeOrderedBackend(
    std::unique_ptr<Backend> inner, QubitOrdering ordering);

}  // namespace fdd::engine
