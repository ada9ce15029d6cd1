// The batch workload (irregular-large): one closed-loop client runs
// begin -> apply(whole circuit) -> sample(S shots) on the default flatdd
// backend, pass after pass of fresh instances, and checks every output
// against the array backend outside the timed calls.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/simulation_engine.hpp"
#include "layers.hpp"
#include "metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "process.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace pb {

using fdd::Complex;
using fdd::Index;
using fdd::engine::Backend;
using fdd::engine::EngineOptions;
using fdd::engine::RunReport;
using fdd::engine::SimulationEngine;

namespace {

constexpr std::size_t kShots = 4096;
/// Gates of each roster circuit run by the set-up warm-up.
constexpr std::size_t kWarmupGates = 16;

/// Checks one circuit's output against the array backend's state; returns
/// "" when correct, else the reason.
std::string verify(const Backend& b, const std::vector<Index>& shots,
                   const fdd::AlignedVector<Complex>& reference) {
  const fdd::AlignedVector<Complex> state = b.stateVector();
  if (state.size() != reference.size()) {
    return "state has the wrong size";
  }
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (std::abs(state[i] - reference[i]) > kAmplitudeTol) {
      return "amplitude " + std::to_string(i) +
             " differs from the array backend";
    }
  }
  if (!std::all_of(shots.begin(), shots.end(), [&](Index s) {
        return s < reference.size() && std::norm(reference[s]) > 0;
      })) {
    return "sampled an outcome of probability 0";
  }
  return "";
}

/// Per-family samples of one run (seconds), one per pass.
struct FamilySamples {
  std::string name;
  std::vector<double> circuit, begin, apply, sample;
};

/// One circuit: the three timed calls, returning their durations.
struct CircuitTimes {
  double begin = 0, apply = 0, sample = 0;
  [[nodiscard]] double total() const { return begin + apply + sample; }
};

CircuitTimes runCircuit(SimulationEngine& engine, const Instance& inst,
                        fdd::Xoshiro256& rng, std::vector<Index>& shots,
                        SpanLog* spans, std::uint64_t id) {
  const Clock::time_point t0 = Clock::now();
  engine.begin("flatdd", inst.circuit.numQubits());
  const Clock::time_point t1 = Clock::now();
  engine.apply(inst.circuit);
  const Clock::time_point t2 = Clock::now();
  shots = engine.backend().sample(kShots, rng);
  const Clock::time_point t3 = Clock::now();
  if (spans != nullptr) {
    spans->record("circuit", id, t0, t3);
    spans->record("engine.begin", id, t0, t1);
    spans->record("engine.apply", id, t1, t2);
    spans->record("backend.sample", id, t2, t3);
  }
  return {secondsBetween(t0, t1), secondsBetween(t1, t2),
          secondsBetween(t2, t3)};
}

/// One pass: the instances and the array backend's state of each,
/// computed outside every timed call.
struct Pass {
  std::vector<Instance> instances;
  std::vector<fdd::AlignedVector<Complex>> references;
};

Pass makePass(const RunConfig& config, const EngineOptions& options,
              std::uint64_t pass) {
  Pass p{batchPass(config.workload, config.seed, pass), {}};
  SimulationEngine arrayEngine{options};
  for (const Instance& inst : p.instances) {
    arrayEngine.begin("array", inst.circuit.numQubits());
    arrayEngine.apply(inst.circuit);
    p.references.push_back(arrayEngine.backend().stateVector());
  }
  return p;
}

}  // namespace

Result runBatch(const RunConfig& config) {
  Result result;
  EngineOptions options;
  options.threads = config.threads;
  options.seed = config.seed;

  // ---- set-up: from process start to the first timed op ----------------
  // Pool spin-up, input generation (the first pass), engine construction
  // and a warm-up that runs the first gates of every circuit.
  if (fdd::par::globalPool().size() < options.threads) {
    fdd::par::resizePool(options.threads);
  }
  {
    SimulationEngine warm{options};
    fdd::Xoshiro256 rng{config.seed};
    for (const Instance& inst : batchPass(config.workload, config.seed, 0)) {
      fdd::qc::Circuit prefix{inst.circuit.numQubits()};
      for (std::size_t g = 0;
           g < std::min(kWarmupGates, inst.circuit.numGates()); ++g) {
        prefix.append(inst.circuit[g]);
      }
      warm.begin("flatdd", prefix.numQubits());
      warm.apply(prefix);
      (void)warm.backend().sample(16, rng);
    }
  }
  result.metrics["setup_s"] = secondsBetween(kProcessStart, Clock::now());
  if (config.setupOnly) {
    return result;
  }

  SpanLog spans{config.trace};
  SimulationEngine engine{options};
  fdd::Xoshiro256 rng{config.seed ^ 0x5a5a5a5aULL};
  std::vector<Index> shots;
  std::uint64_t nextId = 1;

  std::vector<FamilySamples> families;
  const auto familyIndex = [&](const std::string& name) {
    const auto it =
        std::find_if(families.begin(), families.end(),
                     [&](const FamilySamples& f) { return f.name == name; });
    if (it != families.end()) {
      return static_cast<std::size_t>(it - families.begin());
    }
    families.emplace_back().name = name;
    return families.size() - 1;
  };
  LayerSums layers;
  double opTraced = 0, beginTraced = 0, sampleTraced = 0, convertedApply = 0;
  std::vector<std::string> failures;
  const auto check = [&](const Pass& p, std::size_t i) {
    ++result.attempted;
    const std::string why =
        verify(engine.backend(), shots, p.references[i]);
    if (!why.empty()) {
      ++result.failed;
      if (failures.size() < 8) {
        failures.push_back(p.instances[i].family + ": " + why);
      }
    }
  };

  // A traced run first runs pass 0 untraced: the base of trace_overhead,
  // and a repeat of each instance for dd.peak_nodes_spread.
  const Pass first = makePass(config, options, 0);
  std::vector<double> untracedFirst(first.instances.size(), 0);
  std::vector<double> tracedFirst(first.instances.size(), 0);
  std::vector<std::vector<double>> firstPeaks(first.instances.size());
  if (config.trace) {
    for (std::size_t i = 0; i < first.instances.size(); ++i) {
      untracedFirst[i] =
          runCircuit(engine, first.instances[i], rng, shots, nullptr, 0)
              .total();
      firstPeaks[i].push_back(
          static_cast<double>(engine.report().peakDDSize));
      check(first, i);
    }
  }

  // ---- the timed window: passes until `seconds` of op time --------------
  const double cpu0 = cpuSeconds();
  const Clock::time_point windowStart = Clock::now();
  double opSeconds = 0;
  std::size_t circuits = 0;
  for (std::uint64_t pass = 0;
       opSeconds < config.seconds || circuits < 2 * kTailBeyond; ++pass) {
    const Pass p = pass == 0 ? first : makePass(config, options, pass);
    for (std::size_t i = 0; i < p.instances.size(); ++i) {
      const Instance& inst = p.instances[i];
      const CircuitTimes t = runCircuit(engine, inst, rng, shots,
                                        config.trace ? &spans : nullptr,
                                        nextId++);
      ++circuits;
      opSeconds += t.total();
      FamilySamples& f = families[familyIndex(inst.family)];
      f.circuit.push_back(t.total());
      f.begin.push_back(t.begin);
      f.apply.push_back(t.apply);
      f.sample.push_back(t.sample);
      if (config.trace) {
        const RunReport report = engine.report();
        layers.add(report);
        opTraced += t.total();
        beginTraced += t.begin;
        sampleTraced += t.sample;
        convertedApply += report.converted ? t.apply : 0;
        if (pass == 0) {
          tracedFirst[i] = t.total();
          firstPeaks[i].push_back(static_cast<double>(report.peakDDSize));
        }
      }
      check(p, i);
    }
  }
  const double windowSeconds = secondsBetween(windowStart, Clock::now());
  const double cpuWindow = cpuSeconds() - cpu0;
  for (const std::string& f : failures) {
    result.notes.push_back("FAILED " + f);
  }

  // ---- end-to-end metrics -------------------------------------------------
  // A pass mixes families whose times differ by 100x, so a pooled
  // percentile would sit on the border between two families and jump as
  // the pass count changes. The p50 is the geometric mean of the
  // per-family medians; the tail is that p50 times the tail of every
  // circuit's time over its family's median.
  const auto familyMetrics = [&](auto member, const std::string& name) {
    std::vector<double> medians;
    std::vector<double> relative;
    for (const FamilySamples& f : families) {
      const double mid = median(f.*member);
      medians.push_back(mid * 1e3);
      for (const double s : f.*member) {
        relative.push_back(ratio(s, mid));
      }
    }
    const double p50 = geomean(medians);
    result.metrics[name + "_p50"] = p50;
    return putTail(result.metrics, result.notes, name + "_tail", relative,
                   p50);
  };
  bool tailsOk = familyMetrics(&FamilySamples::circuit, "circuit_ms");
  tailsOk = familyMetrics(&FamilySamples::apply, "apply_ms") && tailsOk;
  tailsOk = familyMetrics(&FamilySamples::sample, "read_ms") && tailsOk;
  if (!tailsOk) {
    ++result.failed;
  }
  result.metrics["circuits_per_s"] =
      static_cast<double>(circuits) / opSeconds;
  result.metrics["peak_rss_mb"] = peakRssMb();
  for (const FamilySamples& f : families) {
    char line[128];
    std::snprintf(line, sizeof line, "  %-16s n=%zu  circuit p50 %.3f ms",
                  f.name.c_str(), f.circuit.size(), median(f.circuit) * 1e3);
    result.notes.emplace_back(line);
  }

  if (!config.trace) {
    return result;
  }

  // ---- per-layer metrics (traced run) -------------------------------------
  auto& m = result.metrics;
  for (const MetricDef& def : kPerLayer) {
    m.try_emplace(std::string{def.name}, 0);  // layers not loaded read 0
  }
  std::vector<double> begins;
  std::vector<double> samples;
  for (const FamilySamples& f : families) {
    begins.insert(begins.end(), f.begin.begin(), f.begin.end());
    samples.insert(samples.end(), f.sample.begin(), f.sample.end());
  }
  // Two runs of one instance should reach the same peak DD size; a spread
  // means the DD phase is not deterministic.
  double spread = 0;
  for (const std::vector<double>& peaks : firstPeaks) {
    const auto [lo, hi] = std::minmax_element(peaks.begin(), peaks.end());
    spread = std::max(spread, ratio(*hi - *lo, *lo));
  }
  double untraced = 0;
  double traced = 0;
  for (std::size_t i = 0; i < first.instances.size(); ++i) {
    untraced += untracedFirst[i];
    traced += tracedFirst[i];
  }
  m["engine.begin_ms"] = median(begins) * 1e3;
  m["sim.sample_ms"] = median(samples) * 1e3;
  putLayerMetrics(m, layers, opTraced);
  m["dd.peak_nodes_spread"] = spread;
  m["parallel.cpu_util"] =
      ratio(cpuWindow, windowSeconds * static_cast<double>(config.threads));
  m["trace_overhead"] = ratio(traced, untraced) - 1;

  std::vector<std::pair<const char*, double>> rows = layers.rows();
  rows.insert(rows.begin(), {"engine.begin", beginTraced});
  rows.emplace_back("sim.sample", sampleTraced);
  m["coverage"] =
      ratio(beginTraced + layers.phases() + sampleTraced, opTraced);
  putBudget(result.notes,
            "layer budget (share of op time " + std::to_string(opTraced) +
                " s over " + std::to_string(layers.reports) + " circuits):",
            rows, opTraced);
  char line[160];
  std::snprintf(line, sizeof line,
                "conversion share of the runtime of converted circuits "
                "(paper Fig. 13: 0.01-7%%): %.3f%% over %zu circuits",
                100 * ratio(layers.conversion, convertedApply),
                layers.converted);
  result.notes.emplace_back(line);

  // parallel.speedup: pass 0 again at one thread.
  {
    EngineOptions single = options;
    single.threads = 1;
    SimulationEngine oneThread{single};
    double t1 = 0;
    for (const Instance& inst : first.instances) {
      t1 += runCircuit(oneThread, inst, rng, shots, nullptr, 0).total();
    }
    m["parallel.speedup"] = ratio(t1, traced);
  }

  if (!config.tracePath.empty()) {
    result.notes.push_back(spans.writeChromeTrace(config.tracePath)
                               ? "trace: " + config.tracePath + " (" +
                                     std::to_string(spans.size()) + " spans)"
                               : "could not write trace " + config.tracePath);
  }
  return result;
}

}  // namespace pb
