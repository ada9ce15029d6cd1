// Variable-ordering bench: quantifies the scored static ordering pass on
// order-sensitive circuit families, plus two order-invariant controls.
//
// Two measurements per family:
//  * peak state-DD node count — "dd" backend with recordPerGate, identity
//    order vs the scored pass. Deterministic (no timing involved): the
//    per-gate trace records stateNodeCount(), which is exactly what variable
//    ordering shapes (the package-wide vNode high-water also counts gate
//    DDs and multiply intermediates).
//  * end-to-end simulate time — "flatdd" backend, baseline vs the scored
//    pass, best-of-N to tame container jitter.
//
// Acceptance (printed and recorded in BENCH_ordering.json):
//  * >= 20% peak-DD reduction on >= 2 families, and
//  * no family's e2e time regresses by more than 5%.
//
// Families: bell-crossed (pairs (i, i+n/2) — maximally order-hostile under
// identity labels), qft-permuted (QFT with targets scrambled by a seeded
// shuffle — the pass has to rediscover the hidden precision chain), and
// grover (oracle + diffusion) carry the signal; ghz is an order-invariant
// control that only has to hold the no-regression line. Brickwork-style
// rotation circuits are deliberately absent: generic RY angles make every
// subfunction distinct, so the QMDD is dense under *any* order (node
// merging needs exact equality, not low Schmidt rank) and the permuted
// labels only shift kernel strides.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "circuits/generators.hpp"
#include "common/harness.hpp"
#include "common/prng.hpp"

namespace fdd::bench {
namespace {

constexpr int kReps = 5;
constexpr double kPeakReductionFloor = 0.20;  // >= 20% on >= 2 families
constexpr double kE2eRegressionCeil = 0.05;   // no family slower by > 5%

qc::Circuit bellCrossed(Qubit n) {
  qc::Circuit c{n, "bell_crossed_" + std::to_string(n)};
  const Qubit half = n / 2;
  for (Qubit i = 0; i < half; ++i) {
    c.h(i);
    c.cx(i, static_cast<Qubit>(i + half));
  }
  return c;
}

/// `circuit` with every target/control relabeled through a seeded shuffle —
/// the "QFT-with-permuted-targets" family: the structure is intact but the
/// labels hide it, so identity order pays for long-range interactions the
/// scored pass can undo.
qc::Circuit permuteLabels(const qc::Circuit& circuit, std::uint64_t seed,
                          const std::string& name) {
  const Qubit n = circuit.numQubits();
  std::vector<Qubit> p(n);
  std::iota(p.begin(), p.end(), Qubit{0});
  Xoshiro256 rng{seed};
  for (std::size_t i = p.size(); i > 1; --i) {
    std::swap(p[i - 1], p[static_cast<std::size_t>(rng.below(i))]);
  }
  qc::Circuit out{n, name};
  for (const auto& op : circuit) {
    qc::Operation mapped = op;
    mapped.target = p[static_cast<std::size_t>(op.target)];
    for (auto& c : mapped.controls) {
      c = p[static_cast<std::size_t>(c)];
    }
    std::sort(mapped.controls.begin(), mapped.controls.end());
    out.append(mapped);
  }
  return out;
}

struct FamilyResult {
  std::string name;
  Qubit qubits = 0;
  std::size_t gates = 0;
  std::size_t peakBaseline = 0;
  std::size_t peakOrdered = 0;
  double peakReduction = 0;  // 1 - ordered/baseline
  double e2eBaseline = 0;
  double e2eOrdered = 0;
};

std::size_t peakStateNodes(const engine::RunReport& report) {
  std::size_t peak = 0;
  for (const auto& g : report.perGate) {
    peak = std::max(peak, g.ddSize);
  }
  return peak;
}

FamilyResult runFamily(const qc::Circuit& circuit) {
  FamilyResult r;
  r.name = circuit.name();
  r.qubits = circuit.numQubits();
  r.gates = circuit.numGates();

  // Peak state-DD nodes: dd backend, per-gate trace, identity vs scored.
  engine::EngineOptions ddBase;
  ddBase.recordPerGate = true;
  engine::EngineOptions ddOrdered = ddBase;
  ddOrdered.passes = {"ordering"};
  r.peakBaseline = peakStateNodes(runBackend("dd", circuit, ddBase));
  r.peakOrdered = peakStateNodes(runBackend("dd", circuit, ddOrdered));
  r.peakReduction =
      r.peakBaseline == 0
          ? 0
          : 1.0 - static_cast<double>(r.peakOrdered) /
                      static_cast<double>(r.peakBaseline);

  // End-to-end: flatdd backend, baseline vs the scored pass.
  engine::EngineOptions e2eBase;
  e2eBase.threads = benchThreads();
  engine::EngineOptions e2eOrdered = e2eBase;
  e2eOrdered.passes = {"ordering"};
  r.e2eBaseline = bestOf(kReps, "flatdd", circuit, e2eBase).simulateSeconds;
  r.e2eOrdered = bestOf(kReps, "flatdd", circuit, e2eOrdered).simulateSeconds;
  return r;
}

int run() {
  printPreamble("Variable ordering — scored static pass",
                "arXiv:2512.01186 (gate-adjacency scoring)");

  std::vector<qc::Circuit> families;
  families.push_back(bellCrossed(16));
  families.push_back(permuteLabels(circuits::qft(14, 0x2bd), 0x5eedULL,
                                   "qft_permuted_14"));
  families.push_back(circuits::grover(12));
  families.push_back(circuits::ghz(16));  // order-invariant control

  std::vector<FamilyResult> results;
  results.reserve(families.size());
  Table table({"Circuit", "peak DD (id)", "peak DD (ord)", "reduction",
               "e2e base", "e2e ordered"});
  for (const auto& circuit : families) {
    FamilyResult r = runFamily(circuit);
    table.addRow({r.name, std::to_string(r.peakBaseline),
                  std::to_string(r.peakOrdered),
                  fmtPercent(100.0 * r.peakReduction),
                  fmtSeconds(r.e2eBaseline), fmtSeconds(r.e2eOrdered)});
    results.push_back(std::move(r));
  }
  table.print();

  int familiesReduced = 0;
  double worstRegression = 0;  // positive = slower with ordering
  for (const auto& r : results) {
    if (r.peakReduction >= kPeakReductionFloor) {
      ++familiesReduced;
    }
    if (r.e2eBaseline > 0) {
      worstRegression =
          std::max(worstRegression, r.e2eOrdered / r.e2eBaseline - 1.0);
    }
  }
  const bool peakOk = familiesReduced >= 2;
  const bool e2eOk = worstRegression <= kE2eRegressionCeil;
  std::printf(
      "\nAcceptance: %d/%zu families with >= 20%% peak-DD reduction (need "
      ">= 2): %s\n            worst e2e regression %.1f%% (ceiling 5%%): "
      "%s\n",
      familiesReduced, results.size(), peakOk ? "PASS" : "FAIL",
      100.0 * worstRegression, e2eOk ? "PASS" : "FAIL");

  tools::JsonWriter w;
  w.beginObject();
  w.kv("bench", "ordering");
  w.kv("threads", benchThreads());
  w.kv("repeats", kReps);
  w.key("families").beginArray();
  for (const auto& r : results) {
    w.beginObject();
    w.kv("name", r.name);
    w.kv("qubits", static_cast<std::uint64_t>(r.qubits));
    w.kv("gates", static_cast<std::uint64_t>(r.gates));
    w.kv("peakDDBaseline", static_cast<std::uint64_t>(r.peakBaseline));
    w.kv("peakDDOrdered", static_cast<std::uint64_t>(r.peakOrdered));
    w.kv("peakReduction", r.peakReduction);
    w.kv("e2eBaselineSeconds", r.e2eBaseline);
    w.kv("e2eOrderedSeconds", r.e2eOrdered);
    w.endObject();
  }
  w.endArray();
  w.key("acceptance").beginObject();
  w.kv("familiesWithPeakReduction", familiesReduced);
  w.kv("peakReductionFloor", kPeakReductionFloor);
  w.kv("worstE2eRegression", worstRegression);
  w.kv("e2eRegressionCeil", kE2eRegressionCeil);
  w.kv("pass", peakOk && e2eOk);
  w.endObject();
  w.endObject();
  writeBenchJson("BENCH_ordering.json", w.str());
  return 0;
}

}  // namespace
}  // namespace fdd::bench

int main() { return fdd::bench::run(); }
