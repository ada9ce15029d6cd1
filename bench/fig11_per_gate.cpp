// Figure 11: per-gate runtime of FlatDD, DDSIM, and the array simulator on
// irregular circuits (DNN, Supremacy). The paper's shape: DDSIM's per-gate
// time explodes once the state turns irregular; FlatDD follows DDSIM until
// the conversion point and then stays flat, below the array simulator.
//
// All three traces come from the engine's normalized per-gate recording
// (EngineOptions::recordPerGate -> RunReport::perGate), so the three
// backends are sampled by exactly the same mechanism.

#include <algorithm>
#include <cstdio>

#include "circuits/generators.hpp"
#include "circuits/supremacy.hpp"
#include "common/harness.hpp"

namespace fdd::bench {
namespace {

void runCase(const qc::Circuit& circuit) {
  const Qubit n = circuit.numQubits();
  std::printf("--- %s (%d qubits, %zu gates) ---\n", circuit.name().c_str(),
              n, circuit.numGates());

  engine::EngineOptions multi;
  multi.threads = benchThreads();
  multi.recordPerGate = true;
  engine::EngineOptions single;
  single.threads = 1;
  single.recordPerGate = true;

  const engine::RunReport flat = runBackend("flatdd", circuit, multi);
  const engine::RunReport dd = runBackend("dd", circuit, single);
  const engine::RunReport arr = runBackend("array-mi", circuit, multi);

  const auto& flatTrace = flat.perGate;
  const auto& ddTrace = dd.perGate;
  const auto& arrTrace = arr.perGate;

  Table table({"Gate", "FlatDD", "phase", "DDSIM", "Array"});
  const std::size_t stride = std::max<std::size_t>(1, ddTrace.size() / 24);
  for (std::size_t i = 0; i < ddTrace.size(); i += stride) {
    // The FlatDD trace has one entry per gate, fused or not.
    const std::string phase =
        i < flatTrace.size() ? flatTrace[i].phase : std::string("-");
    const double flatT = i < flatTrace.size() ? flatTrace[i].seconds : 0.0;
    const double arrT = i < arrTrace.size() ? arrTrace[i].seconds : 0.0;
    table.addRow({std::to_string(i), fmtSeconds(flatT), phase,
                  fmtSeconds(ddTrace[i].seconds), fmtSeconds(arrT)});
  }
  table.print();
  if (flat.converted) {
    std::printf("FlatDD converted at gate %zu (conversion took %s)\n\n",
                flat.conversionGateIndex,
                fmtSeconds(flat.conversionSeconds).c_str());
  } else {
    std::printf("FlatDD never converted on this circuit\n\n");
  }
}

int run() {
  printPreamble("Figure 11 — per-gate runtime comparison",
                "FlatDD (ICPP'24), Fig. 11 (and the Fig. 3 top box)");
  runCase(circuits::dnn(12, 8, 7));
  runCase(circuits::supremacy(12, 8, 23));
  return 0;
}

}  // namespace
}  // namespace fdd::bench

int main() { return fdd::bench::run(); }
