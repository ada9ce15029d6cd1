#pragma once
// One options struct for every backend and the circuit-preparation pass
// pipeline. Subsumes the per-simulator option structs: the engine translates
// into ArraySimOptions / FlatDDOptions when it instantiates an adapter, so
// front ends (CLI, benches, examples) configure exactly one thing.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "flatdd/flatdd_simulator.hpp"
#include "sim/array_simulator.hpp"

namespace fdd::engine {

/// Pass names understood by the pipeline (see pass_pipeline.hpp):
///   "optimize"     — qc peephole optimizer (inverse cancellation, rotation
///                    merging, identity dropping); rewrites the circuit.
///   "ordering"     — scored static qubit ordering (engine/ordering.hpp);
///                    armed here, the engine wraps the backend in an
///                    OrderedBackend at the first gate batch.
///   "fusion-dmav"  — DMAV-aware gate fusion (Algorithm 3); armed here,
///                    executed by the flatdd backend at its conversion point.
///   "fusion-kops"  — k-operations fusion baseline; armed like fusion-dmav.
struct EngineOptions {
  unsigned threads = 1;
  /// Below this state-vector size per-gate kernels run single-threaded.
  Index parallelThresholdDim = kParallelThresholdDim;
  /// DD package complex-table tolerance (node-merging epsilon).
  fp tolerance = 1e-10;
  /// Seed stamped into the RunReport and used to derive every PRNG tied to
  /// this run (service sessions derive their sampling stream from it), so
  /// sampled shots are reproducible per run/session.
  std::uint64_t seed = 0;

  // ---- EWMA conversion trigger (flatdd backend) -------------------------
  fp ewmaBeta = 0.9;
  fp ewmaEpsilon = 2.0;
  std::size_t ewmaWarmupGates = 8;
  std::size_t ewmaMinDDSize = 64;
  std::optional<std::size_t> forceConversionAtGate;  // override the EWMA

  // ---- DMAV caching (flatdd backend) ------------------------------------
  bool useCostModel = true;
  bool forceCaching = false;
  unsigned kOperations = 4;  // k for the "fusion-kops" pass

  // ---- reporting --------------------------------------------------------
  /// Record a per-gate (index, phase, seconds, DD size) trace in the
  /// RunReport. Supported by every backend (normalized trace).
  bool recordPerGate = false;

  /// Enable the observability runtime for this run: the engine turns
  /// obs::setEnabled on, resets the metric registry and trace rings, and
  /// folds the resulting registry snapshot into RunReport.metrics. Requires
  /// the FLATDD_OBS build (silently inert otherwise).
  bool enableObs = false;

  /// Ordered circuit-preparation passes, applied before simulation.
  std::vector<std::string> passes;

  /// The per-simulator views of these options.
  [[nodiscard]] sim::ArraySimOptions toArrayOptions(
      sim::ArrayIndexing indexing) const {
    return sim::ArraySimOptions{.threads = threads,
                                .parallelThresholdDim = parallelThresholdDim,
                                .indexing = indexing};
  }

  [[nodiscard]] flat::FlatDDOptions toFlatOptions() const {
    flat::FlatDDOptions o;
    o.threads = threads;
    o.beta = ewmaBeta;
    o.epsilon = ewmaEpsilon;
    o.warmupGates = ewmaWarmupGates;
    o.minDDSize = ewmaMinDDSize;
    o.useCostModel = useCostModel;
    o.forceCaching = forceCaching;
    o.kOperations = kOperations;
    o.parallelThresholdDim = parallelThresholdDim;
    o.tolerance = tolerance;
    o.recordPerGate = recordPerGate;
    o.forceConversionAtGate = forceConversionAtGate;
    // The fusion stage is declared as a pipeline pass; the last fusion-*
    // entry wins (they configure the same conversion-point stage).
    o.fusion = flat::FusionMode::None;
    for (const auto& pass : passes) {
      if (pass == "fusion-dmav") {
        o.fusion = flat::FusionMode::DmavAware;
      } else if (pass == "fusion-kops") {
        o.fusion = flat::FusionMode::KOperations;
      }
    }
    return o;
  }
};

}  // namespace fdd::engine
