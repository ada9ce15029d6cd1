// Figure 12: runtime scalability of FlatDD and the array simulator
// (Quantum++) under increasing thread counts, on Supremacy and KNN.
// Note: this container has few physical cores, so speedups saturate early;
// the paper's 64-core trend (saturation ~16 threads) cannot fully appear —
// the series shape up to the core count is what to compare.
//
// Both series are engine backends ("flatdd", "array-mi") dispatched by name;
// the array runs drop parallelThresholdDim to 2 so every gate exercises the
// thread pool (the scalability signal), while FlatDD keeps the production
// threshold.

#include <cstdio>
#include <string>

#include "circuits/generators.hpp"
#include "circuits/supremacy.hpp"
#include "common/harness.hpp"

namespace fdd::bench {
namespace {

void runCase(const qc::Circuit& circuit) {
  const Qubit n = circuit.numQubits();
  std::printf("--- %s (%d qubits, %zu gates) ---\n", circuit.name().c_str(),
              n, circuit.numGates());
  Table table({"Threads", "FlatDD time", "FlatDD speedup", "Array time",
               "Array speedup"});
  double flatBase = 0;
  double arrBase = 0;
  constexpr int kReps = 3;  // best-of-N to tame container jitter
  for (const unsigned t : {1u, 2u, 4u, 8u, 16u}) {
    engine::EngineOptions flatOpt;
    flatOpt.threads = t;
    engine::EngineOptions arrOpt;
    arrOpt.threads = t;
    arrOpt.parallelThresholdDim = 2;

    const double tFlat =
        bestOf(kReps, "flatdd", circuit, flatOpt).simulateSeconds;
    const double tArr =
        bestOf(kReps, "array-mi", circuit, arrOpt).simulateSeconds;

    if (t == 1) {
      flatBase = tFlat;
      arrBase = tArr;
    }
    table.addRow({std::to_string(t), fmtSeconds(tFlat),
                  fmtRatio(flatBase / tFlat), fmtSeconds(tArr),
                  fmtRatio(arrBase / tArr)});
  }
  table.print();
  std::printf("\n");
}

int run() {
  printPreamble("Figure 12 — runtime scalability over threads",
                "FlatDD (ICPP'24), Fig. 12");
  runCase(circuits::supremacy(16, 8, 23));
  runCase(circuits::knn(17, 17));
  return 0;
}

}  // namespace
}  // namespace fdd::bench

int main() { return fdd::bench::run(); }
