// Engine-layer tests: backend parity through the factory (every registered
// backend against the dense reference), the pass pipeline, the RunReport
// JSON round trip, and the streaming Backend API.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "circuits/generators.hpp"
#include "circuits/supremacy.hpp"
#include "engine/simulation_engine.hpp"
#include "helpers.hpp"
#include "obs/trace.hpp"
#include "simd/kernels.hpp"

namespace fdd {
namespace {

std::vector<qc::Circuit> parityCircuits() {
  std::vector<qc::Circuit> out;
  out.push_back(circuits::ghz(10));
  out.push_back(circuits::qft(7, 0x5eed));
  out.push_back(circuits::grover(6));
  out.push_back(circuits::supremacy(10, 5, 23));  // random supremacy slice
  return out;
}

// ---------------------------------------------------------------------------
// Backend parity: every registered backend, via the factory, against the
// dense reference oracle.
// ---------------------------------------------------------------------------

TEST(EngineParity, AllBackendsMatchDenseReference) {
  const auto names = engine::BackendFactory::instance().registeredNames();
  ASSERT_GE(names.size(), 4u);
  for (const auto& circuit : parityCircuits()) {
    const auto reference = test::denseSimulate(circuit);
    for (const auto& name : names) {
      engine::EngineOptions options;
      options.threads = 2;
      engine::SimulationEngine eng{options};
      const engine::RunReport report = eng.run(name, circuit);
      EXPECT_EQ(report.backend, name);
      EXPECT_EQ(report.qubits, circuit.numQubits());
      EXPECT_EQ(report.gates, circuit.numGates());
      const auto state = eng.backend().stateVector();
      EXPECT_LT(test::maxDistance(state, reference), 1e-9)
          << "backend " << name << " diverges on " << circuit.name();
    }
  }
}

TEST(EngineParity, AllBackendsAgreeWithPassesEnabled) {
  const auto circuit = circuits::supremacy(10, 6, 7);
  const auto reference = test::denseSimulate(circuit);
  const auto names = engine::BackendFactory::instance().registeredNames();
  for (const auto& name : names) {
    engine::EngineOptions options;
    options.threads = 2;
    options.passes = {"optimize", "fusion-dmav"};
    const engine::RunReport report = engine::simulate(name, circuit, options);
    ASSERT_EQ(report.passes.size(), 2u);

    engine::SimulationEngine eng{options};
    eng.run(name, circuit);
    EXPECT_LT(test::maxDistance(eng.backend().stateVector(), reference), 1e-9)
        << "backend " << name << " diverges with passes enabled";
  }
}

TEST(EngineParity, AmplitudeQueriesMatchStateVector) {
  const auto circuit = circuits::qft(6, 11);
  for (const auto& name :
       engine::BackendFactory::instance().registeredNames()) {
    engine::SimulationEngine eng;
    eng.run(name, circuit);
    const auto state = eng.backend().stateVector();
    for (Index i = 0; i < state.size(); ++i) {
      EXPECT_LT(std::abs(eng.backend().amplitude(i) - state[i]), 1e-12)
          << "backend " << name << " amplitude " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

TEST(BackendFactory, RegistersTheFourBuiltins) {
  const auto& factory = engine::BackendFactory::instance();
  for (const char* name : {"flatdd", "dd", "array", "array-mi"}) {
    EXPECT_TRUE(factory.contains(name)) << name;
    EXPECT_FALSE(factory.describe(name).empty()) << name;
  }
}

TEST(BackendFactory, UnknownBackendThrowsWithNameList) {
  try {
    (void)engine::BackendFactory::instance().create("no-such-backend", 4, {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("flatdd"), std::string::npos)
        << "error should list registered backends: " << e.what();
  }
}

TEST(BackendFactory, CreatedBackendReportsItsFactoryName) {
  for (const auto& name :
       engine::BackendFactory::instance().registeredNames()) {
    const auto backend =
        engine::BackendFactory::instance().create(name, 3, {});
    EXPECT_EQ(backend->name(), name);
    EXPECT_EQ(backend->numQubits(), 3);
  }
}

// ---------------------------------------------------------------------------
// Pass pipeline
// ---------------------------------------------------------------------------

TEST(PassPipeline, UnknownPassThrows) {
  engine::EngineOptions options;
  options.passes = {"optimize", "no-such-pass"};
  engine::SimulationEngine eng{options};
  EXPECT_THROW((void)eng.run("dd", circuits::ghz(4)), std::invalid_argument);
}

TEST(PassPipeline, OptimizeCancelsInversePairs) {
  qc::Circuit circuit{3, "cancel"};
  circuit.h(0).h(0).cx(0, 1).cx(0, 1).x(2);  // two inverse pairs + one gate

  engine::EngineOptions options;
  options.passes = {"optimize"};
  const engine::RunReport report = engine::simulate("dd", circuit, options);

  ASSERT_EQ(report.passes.size(), 1u);
  EXPECT_EQ(report.passes[0].name, "optimize");
  EXPECT_TRUE(report.passes[0].circuitTransform);
  EXPECT_EQ(report.passes[0].gatesBefore, 5u);
  EXPECT_EQ(report.passes[0].gatesAfter, 1u);
  EXPECT_EQ(report.gates, 1u);  // the simulated circuit is the prepared one
}

TEST(PassPipeline, FusionPassesAreArmedNotCircuitTransforms) {
  engine::EngineOptions options;
  options.passes = {"fusion-kops"};
  options.forceConversionAtGate = 4;
  const engine::RunReport report =
      engine::simulate("flatdd", circuits::supremacy(8, 6, 3), options);
  ASSERT_EQ(report.passes.size(), 1u);
  EXPECT_FALSE(report.passes[0].circuitTransform);
  EXPECT_EQ(report.passes[0].gatesBefore, report.passes[0].gatesAfter);
  EXPECT_TRUE(report.converted);
}

// ---------------------------------------------------------------------------
// RunReport serialization
// ---------------------------------------------------------------------------

TEST(RunReportJson, RoundTripsEveryField) {
  engine::EngineOptions options;
  options.threads = 2;
  options.passes = {"optimize", "fusion-dmav"};
  options.forceConversionAtGate = 10;
  options.recordPerGate = true;
  const engine::RunReport report =
      engine::simulate("flatdd", circuits::supremacy(8, 8, 5), options);

  EXPECT_TRUE(report.converted);
  EXPECT_FALSE(report.perGate.empty());
  EXPECT_EQ(report.passes.size(), 2u);

  const engine::RunReport parsed =
      engine::RunReport::fromJson(report.toJson());
  EXPECT_EQ(parsed, report);
}

TEST(RunReportJson, SimdTierAndFusionCountersAreReported) {
  // The report's resolved dispatch tier must match the active kernel table,
  // and with a fusion pass the gate counters must still cover every gate.
  qc::Circuit circuit{6, "diag"};
  for (Qubit q = 0; q < 6; ++q) {
    circuit.h(q);
  }
  for (int layer = 0; layer < 4; ++layer) {
    for (Qubit q = 0; q < 6; ++q) {
      circuit.gate(qc::GateKind::RZ, {}, q, {0.3 + 0.1 * layer});
    }
  }
  engine::EngineOptions options;
  options.forceConversionAtGate = 6;
  options.passes = {"fusion-dmav"};
  const engine::RunReport report = engine::simulate("flatdd", circuit,
                                                    options);
  EXPECT_EQ(report.simdTier, simd::toString(simd::activeTier()));
  EXPECT_EQ(report.simdLanes, simd::lanes());
  EXPECT_EQ(report.simdLanes, simd::lanesOf(simd::activeTier()));
  EXPECT_EQ(report.ddGates, 6u);
  EXPECT_EQ(report.ddGates + report.dmavGates, circuit.numGates());
  const engine::RunReport parsed =
      engine::RunReport::fromJson(report.toJson());
  EXPECT_EQ(parsed, report);
}

TEST(RunReportJson, RoundTripsForEveryBackend) {
  const auto circuit = circuits::qft(6, 1);
  for (const auto& name :
       engine::BackendFactory::instance().registeredNames()) {
    engine::EngineOptions options;
    options.recordPerGate = true;
    const engine::RunReport report = engine::simulate(name, circuit, options);
    EXPECT_EQ(engine::RunReport::fromJson(report.toJson()), report)
        << "round trip broke for backend " << name;
  }
}

engine::RunReport reportWithMetrics() {
  engine::RunReport report;
  report.backend = "flatdd";
  report.circuit = "synthetic";
  report.metrics.counters = {{"dmav.calls", 3}, {"rss.bytes", 1.5e9}};
  engine::MetricHistogram hist;
  hist.name = "dmav";
  hist.count = 12;
  hist.sumSeconds = 0.125;
  hist.minSeconds = 1e-6;
  hist.maxSeconds = 0.25;
  hist.p50Seconds = 0.001;
  hist.p99Seconds = 0.2;
  hist.buckets = {0, 2, 5, 5};
  report.metrics.histograms.push_back(hist);
  report.metrics.poolPhases.push_back(
      engine::PoolPhaseMetrics{"dmav", 4, 0.25, {0.1, 0.2}, 1.25});
  report.metrics.loadImbalance = 1.25;
  report.metrics.droppedTraceEvents = 7;
  report.ewmaLog = {engine::EwmaTickReport{0, 10, 10.0, 20.0, false},
                    engine::EwmaTickReport{211, 5000, 1200.5, 2401.0, true}};
  return report;
}

TEST(RunReportJson, RoundTripsMetricsAndEwmaLog) {
  const engine::RunReport report = reportWithMetrics();
  EXPECT_FALSE(report.metrics.empty());
  const engine::RunReport parsed =
      engine::RunReport::fromJson(report.toJson());
  EXPECT_EQ(parsed.metrics, report.metrics);
  EXPECT_EQ(parsed.ewmaLog, report.ewmaLog);
  EXPECT_EQ(parsed, report);
}

TEST(RunReportJson, UnknownKeysInsideMetricsAreIgnored) {
  // A report written by a future version may grow fields anywhere inside the
  // metrics object; today's reader must skip them without throwing.
  const std::string json = R"({
    "backend": "flatdd",
    "metrics": {
      "counters": [{"name": "a", "value": 2, "futureField": [1, 2]}],
      "histograms": [{"name": "h", "count": 1, "sumSeconds": 0.5,
                      "shape": "bimodal"}],
      "poolPhases": [{"phase": "p", "regions": 1, "wallSeconds": 0.5,
                      "busySeconds": [0.1], "imbalance": 1.0,
                      "numaNode": 0}],
      "loadImbalance": 1.0,
      "droppedTraceEvents": 4,
      "futureSection": {"x": 1}
    },
    "ewmaLog": [{"gate": 3, "ddSize": 10, "ewma": 5.0, "threshold": 10.0,
                 "triggered": true, "confidence": null}]
  })";
  const engine::RunReport parsed = engine::RunReport::fromJson(json);
  ASSERT_EQ(parsed.metrics.counters.size(), 1u);
  EXPECT_EQ(parsed.metrics.counters[0].name, "a");
  EXPECT_DOUBLE_EQ(parsed.metrics.counters[0].value, 2.0);
  ASSERT_EQ(parsed.metrics.histograms.size(), 1u);
  EXPECT_EQ(parsed.metrics.histograms[0].count, 1u);
  ASSERT_EQ(parsed.metrics.poolPhases.size(), 1u);
  EXPECT_EQ(parsed.metrics.poolPhases[0].phase, "p");
  EXPECT_EQ(parsed.metrics.droppedTraceEvents, 4u);
  ASSERT_EQ(parsed.ewmaLog.size(), 1u);
  EXPECT_EQ(parsed.ewmaLog[0].gate, 3u);
  EXPECT_TRUE(parsed.ewmaLog[0].triggered);
}

#if FDD_OBS_ENABLED
TEST(RunReportJson, ObsRunProducesRoundTrippingMetrics) {
  engine::EngineOptions options;
  options.threads = 2;
  options.forceConversionAtGate = 10;
  options.enableObs = true;
  const engine::RunReport report =
      engine::simulate("flatdd", circuits::supremacy(8, 8, 5), options);
  fdd::obs::setEnabled(false);  // keep obs out of the remaining tests

  EXPECT_FALSE(report.metrics.empty());
  const engine::RunReport parsed =
      engine::RunReport::fromJson(report.toJson());
  EXPECT_EQ(parsed, report);

  // The scalar CSV gains the observability summary rows.
  const std::string csv = report.toCsv();
  EXPECT_NE(csv.find("load_imbalance,"), std::string::npos);
  EXPECT_NE(csv.find("dropped_trace_events,"), std::string::npos);
}
#endif  // FDD_OBS_ENABLED

TEST(RunReportJson, EscapesSpecialCharacters) {
  engine::RunReport report;
  report.backend = "quote\" backslash\\ newline\n tab\t";
  report.circuit = "control\x01char";
  const engine::RunReport parsed =
      engine::RunReport::fromJson(report.toJson());
  EXPECT_EQ(parsed.backend, report.backend);
  EXPECT_EQ(parsed.circuit, report.circuit);
}

TEST(RunReportJson, MalformedInputThrows) {
  EXPECT_THROW((void)engine::RunReport::fromJson(""), std::invalid_argument);
  EXPECT_THROW((void)engine::RunReport::fromJson("[1,2]{"),
               std::invalid_argument);
  EXPECT_THROW((void)engine::RunReport::fromJson("{\"backend\":}"),
               std::invalid_argument);
  EXPECT_THROW((void)engine::RunReport::fromJson("42"),
               std::invalid_argument);  // top level must be an object
}

TEST(RunReportCsv, EmitsScalarRowsAndPerGateTrace) {
  engine::EngineOptions options;
  options.recordPerGate = true;
  const engine::RunReport report =
      engine::simulate("array", circuits::ghz(5), options);

  const std::string csv = report.toCsv();
  EXPECT_NE(csv.find("backend,array"), std::string::npos);
  EXPECT_NE(csv.find("qubits,5"), std::string::npos);
  EXPECT_NE(csv.find("simulate_seconds,"), std::string::npos);

  const std::string trace = report.perGateCsv();
  // header + one row per gate
  EXPECT_EQ(std::count(trace.begin(), trace.end(), '\n'),
            static_cast<long>(report.gates) + 1);
  EXPECT_NE(trace.find("array"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Streaming / stateful Backend API
// ---------------------------------------------------------------------------

TEST(EngineBackend, StreamingMatchesBatchForEveryBackend) {
  const auto circuit = circuits::supremacy(9, 6, 13);
  for (const auto& name :
       engine::BackendFactory::instance().registeredNames()) {
    engine::EngineOptions options;
    options.forceConversionAtGate = 8;  // exercise mid-stream conversion
    auto streamed = engine::BackendFactory::instance().create(
        name, circuit.numQubits(), options);
    for (const auto& op : circuit) {
      streamed->applyOperation(op);
    }
    auto batch = engine::BackendFactory::instance().create(
        name, circuit.numQubits(), options);
    batch->simulate(circuit);
    EXPECT_LT(test::maxDistance(streamed->stateVector(),
                                batch->stateVector()),
              1e-9)
        << "backend " << name;
  }
}

TEST(EngineBackend, SetStateThenResetRestoresZeroState) {
  const auto loaded = test::randomState(5, 77);
  for (const auto& name :
       engine::BackendFactory::instance().registeredNames()) {
    auto backend = engine::BackendFactory::instance().create(name, 5, {});
    backend->setState(loaded);
    EXPECT_LT(test::maxDistance(backend->stateVector(), loaded), 1e-10)
        << "backend " << name;
    backend->reset();
    const auto state = backend->stateVector();
    EXPECT_LT(std::abs(state[0] - Complex{1.0}), 1e-12) << "backend " << name;
    for (Index i = 1; i < state.size(); ++i) {
      EXPECT_LT(std::abs(state[i]), 1e-12) << "backend " << name;
    }
  }
}

TEST(EngineBackend, SamplingGhzYieldsOnlyTheTwoBranches) {
  const auto circuit = circuits::ghz(8);
  const Index allOnes = (Index{1} << 8) - 1;
  for (const auto& name :
       engine::BackendFactory::instance().registeredNames()) {
    engine::SimulationEngine eng;
    eng.run(name, circuit);
    Xoshiro256 rng{42};
    const auto samples = eng.backend().sample(500, rng);
    ASSERT_EQ(samples.size(), 500u) << "backend " << name;
    std::size_t ones = 0;
    for (const Index s : samples) {
      ASSERT_TRUE(s == 0 || s == allOnes)
          << "backend " << name << " sampled impossible outcome " << s;
      ones += s == allOnes ? 1 : 0;
    }
    // Both branches have probability 1/2; 500 shots never land all on one
    // side (probability 2^-499).
    EXPECT_GT(ones, 0u) << "backend " << name;
    EXPECT_LT(ones, 500u) << "backend " << name;
  }
}

TEST(EngineBackend, MemoryBytesIsNonZeroAfterRun) {
  for (const auto& name :
       engine::BackendFactory::instance().registeredNames()) {
    const engine::RunReport report =
        engine::simulate(name, circuits::ghz(6), {});
    EXPECT_GT(report.memoryBytes, 0u) << "backend " << name;
    EXPECT_GT(report.peakRssBytes, 0u) << "backend " << name;
  }
}

TEST(SimulationEngine, BackendAccessBeforeFirstRunThrows) {
  engine::SimulationEngine eng;
  EXPECT_FALSE(eng.hasBackend());
  EXPECT_THROW((void)eng.backend(), std::logic_error);
}

TEST(SimulationEngine, DotExportOnlyFromTheDdBackend) {
  const auto circuit = circuits::ghz(4);
  engine::SimulationEngine ddEng;
  ddEng.run("dd", circuit);
  EXPECT_FALSE(ddEng.backend().exportDot().empty());

  engine::SimulationEngine arrEng;
  arrEng.run("array", circuit);
  EXPECT_TRUE(arrEng.backend().exportDot().empty());
}

// ---------------------------------------------------------------------------
// Unified parallel threshold (satellite)
// ---------------------------------------------------------------------------

TEST(ParallelThreshold, SingleConstantSharedByAllDefaults) {
  EXPECT_EQ(sim::ArraySimOptions{}.parallelThresholdDim,
            kParallelThresholdDim);
  EXPECT_EQ(flat::FlatDDOptions{}.parallelThresholdDim,
            kParallelThresholdDim);
  EXPECT_EQ(engine::EngineOptions{}.parallelThresholdDim,
            kParallelThresholdDim);
}

}  // namespace
}  // namespace fdd
