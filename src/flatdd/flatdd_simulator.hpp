#pragma once
// FlatDD (Fig. 3): start in DD-based simulation, watch the state DD size
// with an EWMA, and when regularity collapses convert the state to a flat
// array (in parallel) and continue with DMAV — optionally fusing the
// remaining gates first. This is the paper's primary contribution assembled
// from the pieces in this directory.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/prng.hpp"
#include "common/timing.hpp"
#include "flatdd/dmav_cache.hpp"
#include "flatdd/ewma.hpp"
#include "flatdd/plan_cache.hpp"
#include "qc/circuit.hpp"
#include "sim/dd_simulator.hpp"

namespace fdd::flat {

enum class FusionMode : std::uint8_t {
  None,        // Table 1 configuration
  DmavAware,   // Algorithm 3 (ours)
  KOperations, // [100] baseline
};

struct FlatDDOptions {
  /// Workers for conversion and DMAV. The DD phase is always sequential;
  /// `threads` still scales the EWMA epsilon (see ddPhaseSpeedup).
  unsigned threads = 16;
  fp beta = 0.9;             // EWMA history weight (paper default)
  fp epsilon = 2.0;          // EWMA trigger threshold (paper default)
  std::size_t warmupGates = 8;
  std::size_t minDDSize = 64;
  bool useCostModel = true;  // pick cached/uncached DMAV per gate (Eq. 5/6)
  bool forceCaching = false; // always use the cached DMAV (for ablations)
  FusionMode fusion = FusionMode::None;
  unsigned kOperations = 4;  // k for FusionMode::KOperations
  /// Below this state-vector size, per-gate fork/join latency exceeds the
  /// DMAV kernel cost and gates run single-threaded (see common/types.hpp).
  Index parallelThresholdDim = kParallelThresholdDim;
  fp tolerance = 1e-10;
  bool recordPerGate = false;      // keep a per-gate trace (Fig. 11)
  /// Override the EWMA: convert once this many gates (counted across
  /// applyOperation() and simulate() calls since reset()) ran in DD.
  std::optional<std::size_t> forceConversionAtGate{};
  /// Execute DMAV through compiled plans from the simulator's bounded LRU
  /// cache (see dmav_plan.hpp / plan_cache.hpp). Off = the pre-plan
  /// recursive path (Alg. 1/2 verbatim), kept for ablation benchmarks.
  bool usePlanCache = true;
  /// Collapse runs of consecutive diagonal gates (RZ/CP/CZ/S/T layers) in
  /// the DMAV phase into one fused DiagRun plan: k gates become a single
  /// pointwise-product sweep over the state (see compileDiagRunPlan).
  /// Requires usePlanCache; simulate() only — the streaming applyOperation()
  /// path has no lookahead and applies gates one at a time.
  bool fuseDiagonalRuns = true;
};

struct PerGateRecord {
  std::size_t gateIndex = 0;
  bool inDDPhase = true;
  double seconds = 0;
  std::size_t ddSize = 0;  // 0 once in the DMAV phase
};

struct FlatDDStats {
  bool converted = false;
  std::size_t conversionGateIndex = 0;  // first gate executed by DMAV
  double conversionSeconds = 0;
  double ddPhaseSeconds = 0;
  double dmavPhaseSeconds = 0;
  double fusionSeconds = 0;
  std::size_t ddGates = 0;
  std::size_t dmavGates = 0;    // matrices applied after (optional) fusion
  std::size_t cachedGates = 0;  // DMAVs that ran with the cache
  std::size_t cacheHits = 0;
  std::size_t planCacheHits = 0;    // plan reused from the LRU cache
  std::size_t planCacheMisses = 0;
  std::size_t planCompiles = 0;
  std::size_t diagRuns = 0;       // fused diagonal runs executed
  std::size_t diagRunGates = 0;   // gates collapsed into those runs
  std::size_t denseBlockGates = 0;  // DMAVs executed via the DenseBlock path
  double planCompileSeconds = 0;    // time spent lowering DDs to plans
  double dmavReplaySeconds = 0;     // time spent replaying compiled plans
  std::size_t peakDDSize = 0;
  fp dmavModelCost = 0;  // sum of Section 3.2.3 costs over applied matrices
                         // (the "Cost" column of Table 2)
  std::vector<PerGateRecord> perGate;
  /// One entry per EWMA monitor tick, recorded only while obs::enabled().
  std::vector<EwmaDecision> ewmaLog;

  /// The per-gate trace as CSV ("gate,phase,seconds,dd_size") for external
  /// plotting of Fig. 3 / Fig. 11 style charts.
  [[nodiscard]] std::string perGateCsv() const;
};

class FlatDDSimulator {
 public:
  explicit FlatDDSimulator(Qubit nQubits, FlatDDOptions options = {});

  FlatDDSimulator(const FlatDDSimulator&) = delete;
  FlatDDSimulator& operator=(const FlatDDSimulator&) = delete;

  [[nodiscard]] Qubit numQubits() const noexcept { return nQubits_; }
  [[nodiscard]] const FlatDDOptions& options() const noexcept {
    return options_;
  }

  /// Drops state, statistics and the EWMA history back to |0...0>.
  void reset();
  /// Loads an arbitrary state (must have size 2^n). The EWMA restarts from
  /// the loaded state's DD size.
  void setState(std::span<const Complex> amplitudes);

  /// Streams a single gate: DD phase with EWMA monitoring until the trigger
  /// fires, DMAV afterwards. Unlike simulate(), streaming cannot fuse (no
  /// lookahead over the remaining gates).
  void applyOperation(const qc::Operation& op);

  /// Runs the full circuit from the current state (use reset() between
  /// runs); applies the configured fusion pass at the conversion point.
  /// Gate indices (conversion point, per-gate trace, forced conversion)
  /// count on from earlier calls, so a circuit fed in chunks reports what
  /// one call would. No trigger converts on the last gate of a call, where
  /// no gate is left for DMAV. A forced conversion point reached there
  /// converts before the next call's first gate, so DMAV starts at the same
  /// gate however the circuit is chunked.
  void simulate(const qc::Circuit& circuit);

  /// Amplitude of basis state i — answered from whichever representation
  /// the simulation ended in.
  [[nodiscard]] Complex amplitude(Index i) const;

  /// Dense final state (converts on demand if the run stayed in DD).
  [[nodiscard]] AlignedVector<Complex> stateVector() const;

  /// Samples `shots` measurement outcomes from the final state, using DD
  /// descent when the run stayed in DD and cumulative-distribution binary
  /// search on the flat array otherwise.
  [[nodiscard]] std::vector<Index> sample(std::size_t shots,
                                          Xoshiro256& rng) const;

  [[nodiscard]] const FlatDDStats& stats() const noexcept { return stats_; }

  /// Approximate working-set bytes (DD package + flat vectors + workspace).
  [[nodiscard]] std::size_t memoryBytes() const;

 private:
  /// One DD-phase gate: apply it, feed the EWMA, record it, and convert
  /// when the trigger fires and `mayConvert`. ddPhaseSeconds includes the
  /// conversion.
  void applyDDGate(const qc::Operation& op, bool mayConvert);
  /// Converts when a forced conversion point was reached on the last gate
  /// of an earlier simulate() call; called before a call's first gate.
  void convertAtPassedForcedPoint();
  void convertToFlat(std::size_t gateIndex);
  void applyDmav(const dd::mEdge& gate);
  void applyDmavDiagRun(std::span<const dd::mEdge> run);

  Qubit nQubits_;
  FlatDDOptions options_;
  sim::DDSimulator ddSim_;
  EwmaMonitor ewma_;

  bool flatPhase_ = false;
  AlignedVector<Complex> v_;  // current state (flat phase)
  AlignedVector<Complex> w_;  // scratch output vector
  DmavWorkspace workspace_;
  // Declared after ddSim_ so it is destroyed (unpinning cached gate roots)
  // before the DD package it references.
  PlanCache planCache_;

  FlatDDStats stats_;
};

}  // namespace fdd::flat
