#include "service/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "service/job_queue.hpp"

namespace fdd::svc {

Session::Session(std::uint64_t id, SessionConfig config)
    : id_{id},
      config_{[&] {
        config.engine.seed = config.seed;
        // Sessions share the service's observability window; a per-apply
        // registry reset would clobber concurrent sessions' metrics.
        config.engine.enableObs = false;
        return std::move(config);
      }()},
      engine_{config_.engine},
      // Derive the sampling stream from the session seed through SplitMix64
      // so seed 0 still yields a well-mixed state.
      rng_{SplitMix64{config_.seed}.next()} {
  engine_.begin(config_.backend, config_.qubits);
}

std::size_t Session::apply(const qc::Circuit& chunk,
                           const par::CancelToken& token) {
  FDD_TIMED_SCOPE("service.session_apply");
  if (chunk.numQubits() != config_.qubits) {
    throw std::invalid_argument("Session::apply: qubit count mismatch");
  }
  std::size_t applied = 0;
  const auto& ops = chunk.operations();
  for (std::size_t begin = 0; begin < ops.size();
       begin += kCancelCheckGates) {
    if (token.cancelled()) {
      throw CancelledError{};
    }
    const std::size_t end =
        std::min(begin + kCancelCheckGates, ops.size());
    qc::Circuit slice{config_.qubits, chunk.name()};
    for (std::size_t i = begin; i < end; ++i) {
      slice.append(ops[i]);
    }
    applied += engine_.apply(slice);
    gates_.fetch_add(end - begin, std::memory_order_relaxed);
    ++stateVersion_;
  }
  if (ops.empty() && token.cancelled()) {
    throw CancelledError{};
  }
  return applied;
}

void Session::ensureDistribution() {
  if (cdfVersion_ == stateVersion_) {
    return;
  }
  const AlignedVector<Complex> state = engine_.backend().stateVector();
  cdf_.resize(state.size());
  fp acc = 0;
  for (std::size_t i = 0; i < state.size(); ++i) {
    acc += state[i].real() * state[i].real() +
           state[i].imag() * state[i].imag();
    cdf_[i] = acc;
  }
  cdfVersion_ = stateVersion_;
}

std::vector<Index> Session::sample(std::size_t shots) {
  FDD_TIMED_SCOPE("service.session_sample");
  ensureDistribution();
  const fp norm = cdf_.empty() ? fp{0} : cdf_.back();
  std::vector<Index> outcomes;
  outcomes.reserve(shots);
  for (std::size_t s = 0; s < shots; ++s) {
    const fp r = rng_.uniform() * norm;
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), r);
    outcomes.push_back(static_cast<Index>(
        it == cdf_.end() ? cdf_.size() - 1 : it - cdf_.begin()));
  }
  return outcomes;
}

Complex Session::amplitude(Index i) const {
  return engine_.backend().amplitude(i);
}

engine::RunReport Session::report() const {
  engine::RunReport r = engine_.report();
  if (r.circuit.empty() || r.circuit == "circuit") {
    r.circuit = "session-" + std::to_string(id_);
  }
  return r;
}

std::uint64_t Session::checkpoint() {
  if (checkpoints_.size() >= config_.maxCheckpoints) {
    throw std::runtime_error(
        "Session::checkpoint: limit of " +
        std::to_string(config_.maxCheckpoints) +
        " checkpoints reached; release one first");
  }
  Checkpoint cp;
  cp.state = engine_.backend().stateVector();
  cp.rng = rng_.state();
  cp.gatesApplied = gates_.load(std::memory_order_relaxed);
  const std::uint64_t id = nextCheckpointId_++;
  checkpoints_.emplace(id, std::move(cp));
  return id;
}

void Session::restore(std::uint64_t checkpointId) {
  const auto it = checkpoints_.find(checkpointId);
  if (it == checkpoints_.end()) {
    throw std::invalid_argument("Session::restore: unknown checkpoint " +
                                std::to_string(checkpointId));
  }
  const Checkpoint& cp = it->second;
  engine_.backend().setState(cp.state);
  rng_.setState(cp.rng);
  gates_.store(cp.gatesApplied, std::memory_order_relaxed);
  ++stateVersion_;  // the cached distribution is for the pre-restore state
}

void Session::release(std::uint64_t checkpointId) {
  if (checkpoints_.erase(checkpointId) == 0) {
    throw std::invalid_argument("Session::release: unknown checkpoint " +
                                std::to_string(checkpointId));
  }
}

}  // namespace fdd::svc
