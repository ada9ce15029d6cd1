#include "flatdd/flatdd_simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "flatdd/conversion.hpp"
#include "flatdd/cost_model.hpp"
#include "flatdd/dmav.hpp"
#include "flatdd/fusion.hpp"
#include "obs/metrics.hpp"
#include "simd/calibration.hpp"
#include "simd/kernels.hpp"

namespace fdd::flat {

FlatDDSimulator::FlatDDSimulator(Qubit nQubits, FlatDDOptions options)
    : nQubits_{nQubits},
      options_{options},
      ddSim_{nQubits, options.tolerance},
      // epsilon is scaled by ddPhaseSpeedup(threads) although the DD phase
      // is sequential; cost_model.hpp says why the factor stays for now. A
      // faster *array* phase (AVX-512 tier vs the AVX2 reference, measured
      // by simd::arrayPhaseSpeedup()) shrinks the break-even size, moving
      // conversion earlier; that factor is exactly 1.0 on AVX2 hosts so
      // calibrated tiers only ever shift the trigger where the kernels are
      // genuinely faster.
      ewma_{options.beta,
            options.epsilon * ddPhaseSpeedup(options.threads) /
                simd::arrayPhaseSpeedup(),
            options.warmupGates, options.minDDSize},
      planCache_{ddSim_.package()} {
  // stats_ is a member, so the log vector's address is stable across reset()
  // (which assigns a fresh FlatDDStats into the same object).
  ewma_.attachLog(&stats_.ewmaLog);
}

void FlatDDSimulator::reset() {
  planCache_.clear();
  ddSim_.reset();
  ewma_.reset();
  flatPhase_ = false;
  v_.clear();
  w_.clear();
  stats_ = FlatDDStats{};
}

void FlatDDSimulator::setState(std::span<const Complex> amplitudes) {
  reset();
  ddSim_.setState(amplitudes);
}

void FlatDDSimulator::applyDDGate(const qc::Operation& op, bool mayConvert) {
  Stopwatch clock;
  ddSim_.applyOperation(op);
  const std::size_t size = ddSim_.stateNodeCount();
  stats_.peakDDSize = std::max(stats_.peakDDSize, size);
  ++stats_.ddGates;
  bool trigger = ewma_.observe(size);
  if (obs::enabled()) {
    obs::counterEvent("dd.size", static_cast<double>(size));
    obs::counterEvent("ewma.value", ewma_.value());
  }
  if (options_.forceConversionAtGate) {
    trigger = stats_.ddGates >= *options_.forceConversionAtGate;
  }
  if (options_.recordPerGate) {
    stats_.perGate.push_back(
        PerGateRecord{stats_.ddGates - 1, true, clock.seconds(), size});
  }
  if (trigger && mayConvert) {
    convertToFlat(stats_.ddGates);
  }
  stats_.ddPhaseSeconds += clock.seconds();
}

void FlatDDSimulator::convertAtPassedForcedPoint() {
  if (flatPhase_ || !options_.forceConversionAtGate || stats_.ddGates == 0 ||
      stats_.ddGates < *options_.forceConversionAtGate) {
    return;
  }
  Stopwatch clock;
  convertToFlat(stats_.ddGates);
  stats_.ddPhaseSeconds += clock.seconds();
}

void FlatDDSimulator::applyOperation(const qc::Operation& op) {
  convertAtPassedForcedPoint();
  if (!flatPhase_) {
    applyDDGate(op, true);
    return;
  }
  auto& pkg = ddSim_.package();
  Stopwatch gateClock;
  const dd::mEdge gate = pkg.makeGateDD(op);
  pkg.incRef(gate);
  applyDmav(gate);
  pkg.decRef(gate);
  pkg.garbageCollect();
  ++stats_.dmavGates;
  const double seconds = gateClock.seconds();
  stats_.dmavPhaseSeconds += seconds;
  if (options_.recordPerGate) {
    stats_.perGate.push_back(
        PerGateRecord{stats_.ddGates + stats_.dmavGates - 1, false, seconds,
                      0});
  }
}

void FlatDDSimulator::simulate(const qc::Circuit& circuit) {
  if (circuit.numQubits() != nQubits_) {
    throw std::invalid_argument("simulate: circuit qubit count mismatch");
  }
  const auto& ops = circuit.operations();
  std::size_t i = 0;
  if (!ops.empty()) {
    convertAtPassedForcedPoint();
  }

  // ---- Phase 1: DD-based simulation with the EWMA monitor ----------------
  for (; i < ops.size() && !flatPhase_; ++i) {
    applyDDGate(ops[i], i + 1 < ops.size());
  }
  if (!flatPhase_) {
    return;  // the whole circuit stayed regular (e.g. Adder, GHZ)
  }

  // ---- Fusion of the remaining gates (optional) ---------------------------
  auto& pkg = ddSim_.package();
  Stopwatch fusionClock;
  std::vector<dd::mEdge> gates;
  gates.reserve(ops.size() - i);
  for (std::size_t g = i; g < ops.size(); ++g) {
    const dd::mEdge m = pkg.makeGateDD(ops[g]);
    pkg.incRef(m);
    gates.push_back(m);
  }
  if (options_.fusion == FusionMode::DmavAware) {
    gates = dmavAwareFusion(pkg, gates, options_.threads);
  } else if (options_.fusion == FusionMode::KOperations) {
    gates = kOperationsFusion(pkg, gates, options_.kOperations,
                              options_.threads);
  }
  stats_.fusionSeconds += fusionClock.seconds();

  // ---- Phase 2: DMAV --------------------------------------------------------
  Stopwatch dmavPhase;
  const bool fuseRuns = options_.fuseDiagonalRuns && options_.usePlanCache;
  for (std::size_t g = 0; g < gates.size();) {
    // Diagonal-run detection: extend over consecutive diagonal gate DDs and
    // collapse runs of >= 2 into one fused DiagRun sweep.
    std::size_t runEnd = g;
    if (fuseRuns) {
      while (runEnd < gates.size() && runEnd - g < kMaxDiagRunGates &&
             isDiagonalGateDD(gates[runEnd])) {
        ++runEnd;
      }
    }
    if (runEnd - g >= 2) {
      const std::size_t runLen = runEnd - g;
      Stopwatch runClock;
      applyDmavDiagRun(std::span<const dd::mEdge>{gates.data() + g, runLen});
      for (std::size_t r = g; r < runEnd; ++r) {
        pkg.decRef(gates[r]);
      }
      ++stats_.diagRuns;
      stats_.diagRunGates += runLen;
      stats_.dmavGates += runLen;
      if (options_.recordPerGate) {
        const double each = runClock.seconds() / static_cast<double>(runLen);
        for (std::size_t r = 0; r < runLen; ++r) {
          stats_.perGate.push_back(PerGateRecord{
              stats_.conversionGateIndex + stats_.dmavGates - runLen + r,
              false, each, 0});
        }
      }
      g = runEnd;
      continue;
    }
    Stopwatch gateClock;
    applyDmav(gates[g]);
    pkg.decRef(gates[g]);
    ++stats_.dmavGates;
    if (options_.recordPerGate) {
      stats_.perGate.push_back(
          PerGateRecord{stats_.conversionGateIndex + stats_.dmavGates - 1,
                        false, gateClock.seconds(), 0});
    }
    ++g;
  }
  pkg.garbageCollect(true);
  stats_.dmavPhaseSeconds += dmavPhase.seconds();
}

void FlatDDSimulator::convertToFlat(std::size_t gateIndex) {
  FDD_TIMED_SCOPE("conversion");
  // The decision instant: an "i" event in the trace marks exactly when the
  // representation switched (value = EWMA, value2 = threshold, aux = gate).
  obs::instantEvent("ewma.convert", ewma_.value(),
                    ewma_.epsilon() * ewma_.value(), gateIndex);
  Stopwatch clock;
  v_.resize(Index{1} << nQubits_);
  w_.resize(Index{1} << nQubits_);
  ddToArrayParallel(ddSim_.state(), nQubits_, v_, options_.threads);
  ddSim_.releaseState();  // the irregular state DD is no longer needed
  flatPhase_ = true;
  stats_.converted = true;
  stats_.conversionGateIndex = gateIndex;
  stats_.conversionSeconds = clock.seconds();
}

void FlatDDSimulator::applyDmavDiagRun(std::span<const dd::mEdge> run) {
  const Index dim = Index{1} << nQubits_;
  const unsigned threads =
      dim < options_.parallelThresholdDim ? 1 : options_.threads;
  bool wasHit = false;
  const DmavPlan& plan = planCache_.getRun(run, nQubits_, threads, &wasHit);
  if (wasHit) {
    ++stats_.planCacheHits;
  } else {
    ++stats_.planCacheMisses;
    ++stats_.planCompiles;
    stats_.planCompileSeconds += plan.compileSeconds;
  }
  // One sweep regardless of the run length: charge a single pass of 2^n
  // MACs (the pointwise product) split across the replay threads.
  stats_.dmavModelCost +=
      static_cast<fp>(dim) / static_cast<fp>(plan.threads);
  Stopwatch replayClock;
  replayPlan(plan, v_, w_);
  stats_.dmavReplaySeconds += replayClock.seconds();
  std::swap(v_, w_);
}

void FlatDDSimulator::applyDmav(const dd::mEdge& gate) {
  const Index dim = Index{1} << nQubits_;
  const unsigned threads =
      dim < options_.parallelThresholdDim ? 1 : options_.threads;
  // A gate that qualifies for the single-pass DenseBlock lowering always
  // beats the cached (buffer-reduce) variant: skip Eq. 5/6 and force row
  // mode, where compileDmavPlan picks the dense shape. forceCaching is an
  // ablation flag and keeps overriding this.
  const bool dense = options_.usePlanCache && !options_.forceCaching &&
                     denseBlockProbe(gate, nQubits_).has_value();
  bool useCache = options_.forceCaching;
  if (!useCache && !dense && options_.useCostModel) {
    useCache = cachingBeneficial(gate, nQubits_, threads, simd::lanes());
  }
  stats_.dmavModelCost += dmavCost(gate, nQubits_, threads, simd::lanes());
  if (options_.usePlanCache) {
    const PlanMode mode = useCache ? PlanMode::Cached : PlanMode::Row;
    bool wasHit = false;
    const DmavPlan& plan =
        planCache_.get(gate, nQubits_, threads, mode, &wasHit);
    if (wasHit) {
      ++stats_.planCacheHits;
    } else {
      ++stats_.planCacheMisses;
      ++stats_.planCompiles;
      stats_.planCompileSeconds += plan.compileSeconds;
    }
    if (plan.denseK != 0) {
      ++stats_.denseBlockGates;
    }
    Stopwatch replayClock;
    if (useCache) {
      const DmavCacheStats s = replayPlanCached(plan, v_, w_, workspace_);
      ++stats_.cachedGates;
      stats_.cacheHits += s.cacheHits;
    } else {
      replayPlan(plan, v_, w_);
    }
    stats_.dmavReplaySeconds += replayClock.seconds();
  } else if (useCache) {
    const DmavCacheStats s =
        dmavCachedRecursive(gate, nQubits_, v_, w_, threads, workspace_);
    ++stats_.cachedGates;
    stats_.cacheHits += s.cacheHits;
  } else {
    dmavRecursive(gate, nQubits_, v_, w_, threads);
  }
  std::swap(v_, w_);
}

Complex FlatDDSimulator::amplitude(Index i) const {
  if (flatPhase_) {
    return v_[i];
  }
  return ddSim_.amplitude(i);
}

AlignedVector<Complex> FlatDDSimulator::stateVector() const {
  if (flatPhase_) {
    return v_;
  }
  return ddToArrayParallel(ddSim_.state(), nQubits_, options_.threads);
}

std::vector<Index> FlatDDSimulator::sample(std::size_t shots,
                                           Xoshiro256& rng) const {
  if (!flatPhase_) {
    return ddSim_.sample(shots, rng);
  }
  // Cumulative distribution + binary search: O(2^n) setup, O(log 2^n)/shot.
  std::vector<fp> cdf(v_.size());
  fp acc = 0;
  for (Index i = 0; i < v_.size(); ++i) {
    acc += norm2(v_[i]);
    cdf[i] = acc;
  }
  std::vector<Index> out;
  out.reserve(shots);
  for (std::size_t s = 0; s < shots; ++s) {
    const fp r = rng.uniform() * acc;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), r);
    out.push_back(static_cast<Index>(
        std::min<std::ptrdiff_t>(it - cdf.begin(),
                                 static_cast<std::ptrdiff_t>(cdf.size()) -
                                     1)));
  }
  return out;
}

std::string FlatDDStats::perGateCsv() const {
  std::string csv = "gate,phase,seconds,dd_size\n";
  for (const auto& rec : perGate) {
    csv += std::to_string(rec.gateIndex);
    csv += rec.inDDPhase ? ",dd," : ",dmav,";
    csv += std::to_string(rec.seconds);
    csv += ',';
    csv += std::to_string(rec.ddSize);
    csv += '\n';
  }
  return csv;
}

std::size_t FlatDDSimulator::memoryBytes() const {
  std::size_t bytes = ddSim_.package().stats().memoryBytes;
  bytes += (v_.size() + w_.size()) * sizeof(Complex);
  bytes += workspace_.memoryBytes();
  bytes += planCache_.memoryBytes();
  return bytes;
}

}  // namespace fdd::flat
