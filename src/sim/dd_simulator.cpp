#include "sim/dd_simulator.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace fdd::sim {

DDSimulator::DDSimulator(Qubit nQubits, fp tolerance)
    : pkg_{std::make_unique<dd::Package>(nQubits, tolerance)} {
  reset();
}

void DDSimulator::reset() {
  pkg_->decRef(root_);  // no-op on the default terminal edge (saturated ref)
  root_ = pkg_->makeZeroState();
  pkg_->incRef(root_);
  gates_ = 0;
  pkg_->garbageCollect();
}

void DDSimulator::setState(std::span<const Complex> amplitudes) {
  if (amplitudes.size() != (Index{1} << numQubits())) {
    throw std::invalid_argument("setState: wrong amplitude count");
  }
  const dd::vEdge next = pkg_->fromArray(amplitudes);
  pkg_->incRef(next);
  pkg_->decRef(root_);
  root_ = next;
  pkg_->garbageCollect();
}

void DDSimulator::applyOperation(const qc::Operation& op) {
  FDD_TIMED_SCOPE("dd.apply");
  const dd::mEdge gate = pkg_->makeGateDD(op);
  const dd::vEdge next = pkg_->multiply(gate, root_);
  pkg_->incRef(next);
  pkg_->decRef(root_);
  root_ = next;
  ++gates_;
  pkg_->garbageCollect();
}

void DDSimulator::releaseState() {
  pkg_->decRef(root_);
  root_ = pkg_->makeZeroState();
  pkg_->incRef(root_);
  pkg_->garbageCollect(true);
}

void DDSimulator::simulate(const qc::Circuit& circuit) {
  if (circuit.numQubits() != numQubits()) {
    throw std::invalid_argument("simulate: circuit qubit count mismatch");
  }
  for (const auto& op : circuit) {
    applyOperation(op);
  }
}

}  // namespace fdd::sim
