// End-to-end FlatDD simulator: equivalence with the baselines on every
// circuit family, conversion behavior (regular circuits stay in DD,
// irregular ones convert), option handling, and statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "circuits/generators.hpp"
#include "circuits/supremacy.hpp"
#include "engine/backend_factory.hpp"
#include "flatdd/flatdd_simulator.hpp"
#include "helpers.hpp"
#include "sim/array_simulator.hpp"

namespace fdd::flat {
namespace {

class FlatDDCircuits : public ::testing::TestWithParam<int> {};

/// Feeds `circuit` to `flat` in simulate() calls of `chunk` gates each.
void simulateInChunks(FlatDDSimulator& flat, const qc::Circuit& circuit,
                      std::size_t chunk) {
  const auto& ops = circuit.operations();
  for (std::size_t lo = 0; lo < ops.size(); lo += chunk) {
    qc::Circuit part{circuit.numQubits()};
    for (std::size_t g = lo; g < std::min(lo + chunk, ops.size()); ++g) {
      part.append(ops[g]);
    }
    flat.simulate(part);
  }
}

qc::Circuit e2eCircuit(int idx) {
  switch (idx) {
    case 0: return circuits::ghz(10);
    case 1: return circuits::wState(9);
    case 2: return circuits::adder(4, 11, 7);
    case 3: return circuits::qft(8, 5);
    case 4: return circuits::dnn(8, 3, 41);
    case 5: return circuits::vqe(8, 3, 42);
    case 6: return circuits::supremacy(8, 6, 43);
    case 7: return circuits::knn(9, 44);
    case 8: return circuits::swapTest(9, 45);
    default: return circuits::bernsteinVazirani(8, 0b10110101);
  }
}

TEST_P(FlatDDCircuits, MatchesArraySimulator) {
  const auto circuit = e2eCircuit(GetParam());
  const Qubit n = circuit.numQubits();
  FlatDDOptions opt;
  opt.threads = 4;
  FlatDDSimulator flat{n, opt};
  flat.simulate(circuit);
  sim::ArraySimulator ref{n, {.threads = 2}};
  ref.simulate(circuit);
  EXPECT_STATE_NEAR(flat.stateVector(), ref.state(), 1e-9) << circuit.name();
}

TEST_P(FlatDDCircuits, FusionModesAgree) {
  const auto circuit = e2eCircuit(GetParam());
  const Qubit n = circuit.numQubits();
  sim::ArraySimulator ref{n, {.threads = 2}};
  ref.simulate(circuit);
  for (const FusionMode mode :
       {FusionMode::DmavAware, FusionMode::KOperations}) {
    FlatDDOptions opt;
    opt.threads = 4;
    opt.fusion = mode;
    FlatDDSimulator flat{n, opt};
    flat.simulate(circuit);
    EXPECT_STATE_NEAR(flat.stateVector(), ref.state(), 1e-9)
        << circuit.name() << " mode=" << static_cast<int>(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(Families, FlatDDCircuits, ::testing::Range(0, 10));

TEST(FlatDD, RegularCircuitsStayInDD) {
  for (const auto& circuit :
       {circuits::ghz(14), circuits::adder(5, 17, 12)}) {
    FlatDDSimulator flat{circuit.numQubits(), {.threads = 4}};
    flat.simulate(circuit);
    EXPECT_FALSE(flat.stats().converted) << circuit.name();
    EXPECT_EQ(flat.stats().ddGates, circuit.numGates());
    EXPECT_EQ(flat.stats().dmavGates, 0u);
  }
}

TEST(FlatDD, IrregularCircuitsConvert) {
  const auto circuit = circuits::supremacy(10, 8, 46);
  FlatDDSimulator flat{10, {.threads = 4}};
  flat.simulate(circuit);
  EXPECT_TRUE(flat.stats().converted);
  EXPECT_GT(flat.stats().conversionGateIndex, 0u);
  EXPECT_LT(flat.stats().conversionGateIndex, circuit.numGates());
  EXPECT_EQ(flat.stats().ddGates + flat.stats().dmavGates,
            circuit.numGates());
}

TEST(FlatDD, ForcedConversionOverridesEwma) {
  const auto circuit = circuits::ghz(10);  // would never convert on its own
  FlatDDOptions opt;
  opt.threads = 4;
  opt.forceConversionAtGate = 3;
  FlatDDSimulator flat{10, opt};
  flat.simulate(circuit);
  EXPECT_TRUE(flat.stats().converted);
  EXPECT_EQ(flat.stats().conversionGateIndex, 3u);
  sim::ArraySimulator ref{10};
  ref.simulate(circuit);
  EXPECT_STATE_NEAR(flat.stateVector(), ref.state(), 1e-10);
}

TEST(FlatDD, ForcedCachingStillCorrect) {
  const auto circuit = circuits::dnn(8, 3, 47);
  FlatDDOptions opt;
  opt.threads = 4;
  opt.forceCaching = true;
  opt.forceConversionAtGate = 5;
  FlatDDSimulator flat{8, opt};
  flat.simulate(circuit);
  EXPECT_EQ(flat.stats().cachedGates, flat.stats().dmavGates);
  sim::ArraySimulator ref{8};
  ref.simulate(circuit);
  EXPECT_STATE_NEAR(flat.stateVector(), ref.state(), 1e-9);
}

TEST(FlatDD, DiagonalLayersCollapseIntoDiagRuns) {
  // An ISING/QAOA-style circuit: after the H wall, every layer is n RZ
  // gates plus a CP ladder — all diagonal. With fuseDiagonalRuns the DMAV
  // phase must collapse each maximal run into one fused sweep and still
  // match both the unfused configuration and the array baseline.
  const Qubit n = 8;
  qc::Circuit circuit{n, "diag-layers"};
  for (Qubit q = 0; q < n; ++q) {
    circuit.h(q);
  }
  for (int layer = 0; layer < 6; ++layer) {
    for (Qubit q = 0; q < n; ++q) {
      circuit.gate(qc::GateKind::RZ, {}, q, {0.1 + 0.07 * layer + 0.03 * q});
    }
    for (Qubit q = 0; q + 1 < n; ++q) {
      circuit.gate(qc::GateKind::P, {q}, static_cast<Qubit>(q + 1),
                   {0.2 + 0.05 * layer});
    }
    circuit.h(0);  // break the run so several independent runs form
  }

  FlatDDOptions opt;
  opt.threads = 2;
  opt.forceConversionAtGate = n;  // convert right after the H wall
  FlatDDSimulator fused{n, opt};
  fused.simulate(circuit);
  EXPECT_GT(fused.stats().diagRuns, 0u);
  EXPECT_GE(fused.stats().diagRunGates, 2 * fused.stats().diagRuns);
  // Every layer's 2n-1 diagonal gates form one maximal run.
  EXPECT_GE(fused.stats().diagRunGates, 6u * (2u * n - 1u));
  EXPECT_EQ(fused.stats().ddGates + fused.stats().dmavGates,
            circuit.numGates());

  FlatDDOptions unfusedOpt = opt;
  unfusedOpt.fuseDiagonalRuns = false;
  FlatDDSimulator unfused{n, unfusedOpt};
  unfused.simulate(circuit);
  EXPECT_EQ(unfused.stats().diagRuns, 0u);
  EXPECT_STATE_NEAR(fused.stateVector(), unfused.stateVector(), 1e-10);

  sim::ArraySimulator ref{n, {.threads = 2}};
  ref.simulate(circuit);
  EXPECT_STATE_NEAR(fused.stateVector(), ref.state(), 1e-10);
}

TEST(FlatDD, PerGateTraceCoversAllGates) {
  const auto circuit = circuits::supremacy(8, 5, 48);
  FlatDDOptions opt;
  opt.threads = 2;
  opt.recordPerGate = true;
  FlatDDSimulator flat{8, opt};
  flat.simulate(circuit);
  const auto& trace = flat.stats().perGate;
  ASSERT_EQ(trace.size(),
            flat.stats().ddGates + flat.stats().dmavGates);
  // DD-phase records come first, then DMAV records.
  bool seenFlat = false;
  for (const auto& rec : trace) {
    if (!rec.inDDPhase) {
      seenFlat = true;
    } else {
      EXPECT_FALSE(seenFlat) << "DD record after DMAV records";
      EXPECT_GT(rec.ddSize, 0u);
    }
    EXPECT_GE(rec.seconds, 0.0);
  }
}

TEST(FlatDD, ChunkedRunsReportCumulativeGateIndices) {
  // A circuit fed in chunks (as the engine's apply does) must report what
  // one call would: the forced conversion point, conversionGateIndex and the
  // per-gate trace all count gates across calls. Streaming runs the same
  // check through applyOperation.
  const auto circuit = circuits::randomUniversal(10, 150, 3);
  const Qubit n = circuit.numQubits();
  const auto& ops = circuit.operations();
  const auto array = engine::BackendFactory::instance().create("array", n, {});
  array->simulate(circuit);

  FlatDDOptions opt;
  opt.threads = 1;
  opt.recordPerGate = true;
  opt.forceConversionAtGate = 70;
  // With 35-gate chunks, gate 70 is the last gate of a call.
  for (const std::size_t chunk : {std::size_t{150}, std::size_t{50},
                                  std::size_t{35}, std::size_t{0}}) {
    SCOPED_TRACE(chunk == 0 ? "streaming" : "chunk " + std::to_string(chunk));
    FlatDDSimulator flat{n, opt};
    if (chunk == 0) {
      for (const auto& op : ops) {
        flat.applyOperation(op);
      }
    } else {
      simulateInChunks(flat, circuit, chunk);
    }
    const FlatDDStats& s = flat.stats();
    EXPECT_TRUE(s.converted);
    EXPECT_EQ(s.conversionGateIndex, 70u);
    EXPECT_EQ(s.ddGates, 70u);
    EXPECT_EQ(s.ddGates + s.dmavGates, ops.size());
    std::vector<int> seen(ops.size(), 0);
    for (const auto& rec : s.perGate) {
      ASSERT_LT(rec.gateIndex, ops.size());
      ++seen[rec.gateIndex];
      EXPECT_EQ(rec.inDDPhase, rec.gateIndex < 70u) << "gate " << rec.gateIndex;
    }
    for (std::size_t g = 0; g < seen.size(); ++g) {
      EXPECT_EQ(seen[g], 1) << "gate " << g;
    }
    for (Index i = 0; i < (Index{1} << n); ++i) {
      ASSERT_LT(std::abs(flat.amplitude(i) - array->amplitude(i)), 1e-10)
          << "amplitude " << i;
    }
  }
}

TEST(FlatDD, ChunkedRunsReusePlansAsOneCallDoes) {
  // Cached plans pin their gate roots, so they stay valid across calls and
  // the garbage collections between them: a circuit fed in 64-gate chunks
  // (as Session::apply feeds it) hits and compiles exactly as one call
  // does. DiagRun fusion is off because chunk borders also cut runs.
  const auto circuit = circuits::randomUniversal(10, 1024, 7);
  const Qubit n = circuit.numQubits();
  FlatDDOptions opt;
  opt.threads = 1;
  opt.forceConversionAtGate = 1;
  opt.fuseDiagonalRuns = false;

  FlatDDSimulator whole{n, opt};
  whole.simulate(circuit);
  FlatDDSimulator chunked{n, opt};
  simulateInChunks(chunked, circuit, 64);

  EXPECT_GT(whole.stats().planCacheHits, 0u);
  EXPECT_EQ(chunked.stats().planCacheHits, whole.stats().planCacheHits);
  EXPECT_EQ(chunked.stats().planCompiles, whole.stats().planCompiles);
  for (Index i = 0; i < (Index{1} << n); ++i) {
    ASSERT_LT(std::abs(chunked.amplitude(i) - whole.amplitude(i)), 1e-12)
        << "amplitude " << i;
  }
}

TEST(FlatDD, AmplitudeQueriesWorkInBothPhases) {
  // Regular circuit (stays DD): amplitude from DD.
  FlatDDSimulator a{6, {.threads = 2}};
  a.simulate(circuits::ghz(6));
  EXPECT_NEAR(std::abs(a.amplitude(0)), SQRT2_INV, 1e-10);
  EXPECT_NEAR(std::abs(a.amplitude(63)), SQRT2_INV, 1e-10);

  // Forced conversion: amplitude from the flat array.
  FlatDDOptions opt;
  opt.threads = 2;
  opt.forceConversionAtGate = 2;
  FlatDDSimulator b{6, opt};
  b.simulate(circuits::ghz(6));
  EXPECT_NEAR(std::abs(b.amplitude(0)), SQRT2_INV, 1e-10);
  EXPECT_NEAR(std::abs(b.amplitude(63)), SQRT2_INV, 1e-10);
}

TEST(FlatDD, MismatchedCircuitThrows) {
  FlatDDSimulator flat{4};
  EXPECT_THROW(flat.simulate(circuits::ghz(5)), std::invalid_argument);
}

TEST(FlatDD, MemoryAccountingIsPositiveAndGrowsOnConversion) {
  const auto circuit = circuits::dnn(10, 3, 49);
  FlatDDSimulator flat{10, {.threads = 2}};
  flat.simulate(circuit);
  EXPECT_GT(flat.memoryBytes(), 0u);
  if (flat.stats().converted) {
    // Converted runs hold two flat vectors.
    EXPECT_GE(flat.memoryBytes(), 2 * sizeof(Complex) * (1u << 10));
  }
}

TEST(FlatDD, StatsTimingsAreConsistent) {
  const auto circuit = circuits::supremacy(8, 6, 50);
  FlatDDSimulator flat{8, {.threads = 2}};
  flat.simulate(circuit);
  const auto& s = flat.stats();
  EXPECT_GE(s.ddPhaseSeconds, 0.0);
  if (s.converted) {
    EXPECT_GT(s.dmavPhaseSeconds, 0.0);
    EXPECT_GE(s.conversionSeconds, 0.0);
  }
}

TEST(FlatDD, ThreadSweepIsDeterministicInResult) {
  const auto circuit = circuits::dnn(8, 2, 51);
  AlignedVector<Complex> reference;
  for (const unsigned t : {1u, 2u, 4u, 8u, 16u}) {
    FlatDDSimulator flat{8, {.threads = t}};
    flat.simulate(circuit);
    const auto state = flat.stateVector();
    if (reference.empty()) {
      reference = state;
    } else {
      EXPECT_STATE_NEAR(state, reference, 1e-10) << "t=" << t;
    }
  }
}

TEST(FlatDD, DDPhaseIsDeterministicAcrossRunsAndThreadCounts) {
  // The DD phase is sequential at every thread count, so two runs at t = 4
  // and one at t = 1 must build the same DDs gate for gate and end in
  // bit-identical amplitudes. ewmaMinDDSize keeps every run in the DD phase.
  for (const qc::Circuit& circuit :
       {circuits::randomUniversal(10, 150, 3), circuits::supremacy(10, 8, 46)}) {
    SCOPED_TRACE(circuit.name());
    const Qubit n = circuit.numQubits();
    std::vector<engine::GateReport> refGates;
    std::vector<Complex> refAmps;
    for (const unsigned t : {4u, 4u, 1u}) {
      SCOPED_TRACE("threads " + std::to_string(t));
      engine::EngineOptions opt;
      opt.threads = t;
      opt.ewmaMinDDSize = std::size_t{1} << 20;
      opt.recordPerGate = true;
      const auto backend =
          engine::BackendFactory::instance().create("flatdd", n, opt);
      backend->simulate(circuit);
      engine::RunReport report;
      backend->fillReport(report);
      ASSERT_FALSE(report.converted);
      ASSERT_EQ(report.perGate.size(), circuit.numGates());
      std::vector<Complex> amps(Index{1} << n);
      for (Index i = 0; i < amps.size(); ++i) {
        amps[i] = backend->amplitude(i);
      }
      if (refAmps.empty()) {
        refGates = report.perGate;
        refAmps = amps;
        continue;
      }
      for (std::size_t g = 0; g < refGates.size(); ++g) {
        ASSERT_EQ(report.perGate[g].ddSize, refGates[g].ddSize) << "gate " << g;
      }
      for (Index i = 0; i < amps.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(amps[i].real()),
                  std::bit_cast<std::uint64_t>(refAmps[i].real()))
            << "amplitude " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(amps[i].imag()),
                  std::bit_cast<std::uint64_t>(refAmps[i].imag()))
            << "amplitude " << i;
      }
    }
  }
}

}  // namespace
}  // namespace fdd::flat
