#pragma once
// One live simulation in the service. A session wraps an incremental
// SimulationEngine (begin()/apply() — see simulation_engine.hpp) plus the
// per-session state the one-shot engine never needed:
//
//   * A seeded PRNG stream: the session's Xoshiro256 is derived from the
//     configured seed, so a session's sampled shots are reproducible and two
//     sessions with the same seed and gates return identical samples.
//   * An amortized sampling distribution: the first sample() after a state
//     change pays one stateVector() readout + one prefix-sum pass; every
//     further sample request is binary search per shot. Applying gates or
//     restoring a checkpoint invalidates it (stateVersion_).
//   * Checkpoints: dense state snapshot + RNG state + gate count, stored in
//     the session; restore() resumes the exact trajectory, including the
//     sampling stream.
//
// Sessions are NOT internally synchronized. The service serializes all
// access to one session by submitting every operation to the JobQueue with
// the session id as orderKey (per-key FIFO); direct calls are only safe
// single-threaded (tests, sequential replay verification).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/prng.hpp"
#include "engine/simulation_engine.hpp"
#include "parallel/cancellation.hpp"
#include "qc/circuit.hpp"

namespace fdd::svc {

struct SessionConfig {
  std::string backend = "flatdd";
  Qubit qubits = 1;
  std::uint64_t seed = 0;
  /// Checkpoints a session may hold at once — each stores a dense 2^n
  /// state, so an unbounded map is a client-driven OOM. checkpoint()
  /// fails at the cap until release() frees a slot.
  std::size_t maxCheckpoints = 32;
  engine::EngineOptions engine;  // seed and enableObs are overwritten
};

class Session {
 public:
  Session(std::uint64_t id, SessionConfig config);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] const SessionConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] Qubit numQubits() const noexcept { return config_.qubits; }

  /// Applies a gate batch on top of the current state. The token is polled
  /// every kCancelCheckGates gates; on cancellation a CancelledError is
  /// thrown with the batch partially applied (gatesApplied() stays accurate
  /// per slice) — restore a checkpoint to recover a known state.
  /// Returns the number of gates applied (post pass pipeline).
  std::size_t apply(const qc::Circuit& chunk,
                    const par::CancelToken& token = {});

  /// Samples `shots` basis-state indices from |amplitude|^2 using the
  /// session's PRNG stream and the cached distribution.
  std::vector<Index> sample(std::size_t shots);

  [[nodiscard]] Complex amplitude(Index i) const;

  /// Cumulative report; the session seed is stamped in.
  [[nodiscard]] engine::RunReport report() const;

  /// Gates live in the current state (rewound by restore(), unlike the
  /// engine's cumulative counter which only grows). Atomic so protocol
  /// threads may read it while a queued job is still applying gates —
  /// the only Session member with that exemption from the
  /// "serialize via the queue" rule.
  [[nodiscard]] std::size_t gatesApplied() const noexcept {
    return gates_.load(std::memory_order_relaxed);
  }

  /// Saves the dense state + RNG stream + gate count under a fresh id.
  /// Throws std::runtime_error once maxCheckpoints are held (see
  /// SessionConfig) — release() one first.
  std::uint64_t checkpoint();
  /// Rewinds to checkpoint `id`; throws std::invalid_argument on unknown id.
  /// The checkpoint stays stored (restore is repeatable).
  void restore(std::uint64_t checkpointId);
  /// Frees checkpoint `id`; throws std::invalid_argument on unknown id.
  void release(std::uint64_t checkpointId);
  [[nodiscard]] std::size_t checkpointCount() const noexcept {
    return checkpoints_.size();
  }

  /// Gates between cancellation-token polls in apply(). Batches are sliced
  /// at this granularity, which bounds cancellation latency by the cost of
  /// one slice; slicing only narrows batch-local fusion windows, never
  /// changes the simulated unitary.
  static constexpr std::size_t kCancelCheckGates = 64;

 private:
  struct Checkpoint {
    AlignedVector<Complex> state;
    std::array<std::uint64_t, 4> rng{};
    std::size_t gatesApplied = 0;
  };

  void ensureDistribution();

  std::uint64_t id_;
  SessionConfig config_;
  engine::SimulationEngine engine_;
  Xoshiro256 rng_;

  // Sampling distribution cache: prefix sums of |amplitude|^2, rebuilt only
  // after the state changed since the last sample().
  std::vector<fp> cdf_;
  std::uint64_t stateVersion_ = 0;   // bumped by apply()/restore()
  std::uint64_t cdfVersion_ = ~std::uint64_t{0};

  std::map<std::uint64_t, Checkpoint> checkpoints_;
  std::uint64_t nextCheckpointId_ = 1;
  // Gates in the current state (see gatesApplied for why it's atomic).
  std::atomic<std::size_t> gates_{0};
};

}  // namespace fdd::svc
