// flatdd — command-line quantum circuit simulator.
//
//   flatdd --circuit supremacy --qubits 14 --depth 10 --backend flatdd
//   flatdd --qasm program.qasm --shots 1000 --top 8
//   flatdd --circuit ghz --qubits 20 --backend dd --stats
//   flatdd --circuit qft --qubits 12 --report report.json
//
// Backend selection, circuit-preparation passes and statistics all go
// through the engine layer (engine::SimulationEngine + BackendFactory);
// run --list-backends for what is registered. See --help for everything.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "circuits/generators.hpp"
#include "circuits/supremacy.hpp"
#include "common/prng.hpp"
#include "common/rss.hpp"
#include "engine/simulation_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/rss_sampler.hpp"
#include "parallel/thread_pool.hpp"
#include "qasm/parser.hpp"
#include "simd/kernels.hpp"

namespace {

using namespace fdd;

struct CliOptions {
  std::string circuit;
  std::string qasmFile;
  Qubit qubits = 12;
  unsigned depth = 8;
  std::uint64_t seed = 7;
  std::string backend = "flatdd";
  unsigned threads = 0;  // 0 = hardware concurrency
  std::vector<std::string> passes;
  std::size_t shots = 0;
  std::size_t top = 8;
  bool stats = false;
  bool obs = false;  // metrics without trace export
  std::string reportJson;
  std::string reportCsv;
  std::string traceJson;  // Chrome trace-event JSON (Perfetto-loadable)
  std::string traceCsv;   // per-gate trace as CSV
  std::string dotFile;
  std::string exportQasm;
};

void printHelp() {
  std::printf(R"(flatdd — hybrid decision-diagram / flat-array quantum circuit simulator

usage: flatdd [options]

circuit selection (one of):
  --circuit NAME     generated family: ghz, wstate, adder, qft, grover, bv,
                     dnn, vqe, knn, swaptest, supremacy, qpe, qaoa,
                     hiddenshift, qv, random
  --qasm FILE        OpenQASM 2.0 file

circuit parameters:
  --qubits N         qubit count (default 12)
  --depth N          layers / cycles / rounds for parameterized families
  --seed N           PRNG seed for randomized families (default 7)

execution:
  --backend NAME     registered backend (default flatdd); --list-backends
  --threads N        worker threads (default: hardware concurrency)
  --pass LIST        comma-separated circuit-preparation passes, in order:
                     ordering, optimize, fusion-dmav, fusion-kops
  --optimize         shorthand for appending the "optimize" pass
  --fusion MODE      none | dmav | kops — shorthand for the fusion-* passes

output:
  --shots N          sample N measurements from the final state
  --top K            print the K most probable outcomes (default 8)
  --stats            print the run report as text
  --report FILE      write the machine-readable run report as JSON
  --report-csv FILE  write the run report as key,value CSV
  --trace FILE       write a Chrome trace-event JSON (open in Perfetto or
                     chrome://tracing): spans for DD apply / conversion /
                     fusion / DMAV, per-worker busy counters,
                     DD-size and RSS tracks, EWMA decision instants.
                     Enables the observability runtime for the run.
  --trace-csv FILE   write the per-gate trace as CSV (enables recording)
  --obs              enable the observability runtime without a trace file
                     (folds counters/histograms into --report / --stats)
  --dot FILE         write the final state DD as graphviz (dd backend)
  --export-qasm FILE write the (lowered) circuit as OpenQASM 2.0
  --list-backends    list registered backends and exit
  --help             this text
)");
}

qc::Circuit buildCircuit(const CliOptions& opt) {
  if (!opt.qasmFile.empty()) {
    return qasm::parseFile(opt.qasmFile);
  }
  const Qubit n = opt.qubits;
  const unsigned d = opt.depth;
  const std::uint64_t s = opt.seed;
  if (opt.circuit == "ghz") return circuits::ghz(n);
  if (opt.circuit == "wstate") return circuits::wState(n);
  if (opt.circuit == "adder") {
    return circuits::adder((n - 2) / 2, s % 1000, (s / 7) % 1000);
  }
  if (opt.circuit == "qft") return circuits::qft(n, s);
  if (opt.circuit == "grover") return circuits::grover(n);
  if (opt.circuit == "bv") return circuits::bernsteinVazirani(n - 1, s);
  if (opt.circuit == "dnn") return circuits::dnn(n, d, s);
  if (opt.circuit == "vqe") return circuits::vqe(n, d, s);
  if (opt.circuit == "knn") return circuits::knn(n | 1, s);
  if (opt.circuit == "swaptest") return circuits::swapTest(n | 1, s);
  if (opt.circuit == "supremacy") return circuits::supremacy(n, d, s);
  if (opt.circuit == "qpe") {
    return circuits::qpe(n - 1, static_cast<fp>(s % 128) / 128.0);
  }
  if (opt.circuit == "qaoa") return circuits::qaoa(n, d, s);
  if (opt.circuit == "hiddenshift") {
    return circuits::hiddenShift(n & ~1, s, s + 1);
  }
  if (opt.circuit == "qv") return circuits::quantumVolume(n, d, s);
  if (opt.circuit == "random") return circuits::randomUniversal(n, 20 * d, s);
  throw std::invalid_argument("unknown circuit family: " + opt.circuit);
}

void printTopOutcomes(std::span<const Complex> state, Qubit n,
                      std::size_t top) {
  std::vector<std::pair<double, Index>> probs;
  probs.reserve(state.size());
  for (Index i = 0; i < state.size(); ++i) {
    const double p = std::norm(state[i]);
    if (p > 1e-12) {
      probs.emplace_back(p, i);
    }
  }
  std::sort(probs.rbegin(), probs.rend());
  std::printf("top outcomes (%zu of %zu nonzero):\n",
              std::min(top, probs.size()), probs.size());
  for (std::size_t k = 0; k < top && k < probs.size(); ++k) {
    std::printf("  |");
    for (Qubit q = n - 1; q >= 0; --q) {
      std::printf("%d", static_cast<int>((probs[k].second >> q) & 1));
    }
    std::printf(">  p = %.6f\n", probs[k].first);
  }
}

void printHistogram(const std::vector<Index>& samples, Qubit n,
                    std::size_t top) {
  std::map<Index, std::size_t> counts;
  for (const Index s : samples) {
    ++counts[s];
  }
  std::vector<std::pair<std::size_t, Index>> sorted;
  sorted.reserve(counts.size());
  for (const auto& [idx, cnt] : counts) {
    sorted.emplace_back(cnt, idx);
  }
  std::sort(sorted.rbegin(), sorted.rend());
  std::printf("measurement histogram (%zu shots, %zu distinct):\n",
              samples.size(), counts.size());
  for (std::size_t k = 0; k < top && k < sorted.size(); ++k) {
    std::printf("  |");
    for (Qubit q = n - 1; q >= 0; --q) {
      std::printf("%d", static_cast<int>((sorted[k].second >> q) & 1));
    }
    std::printf(">  %zu\n", sorted[k].first);
  }
}

void printStats(const engine::RunReport& report) {
  for (const auto& pass : report.passes) {
    std::printf("pass %-12s %zu -> %zu gates%s%s\n", pass.name.c_str(),
                pass.gatesBefore, pass.gatesAfter,
                pass.note.empty() ? "" : ": ", pass.note.c_str());
  }
  std::printf("phase split: %zu DD gates, %zu DMAV gates%s\n",
              report.ddGates, report.dmavGates,
              report.converted ? "" : " (never converted)");
  if (report.converted) {
    std::printf("conversion at gate %zu took %.3f ms\n",
                report.conversionGateIndex, report.conversionSeconds * 1e3);
    std::printf("cached DMAVs: %zu (%zu cache hits); %.3f ms in DMAV "
                "kernels\n",
                report.cachedGates, report.cacheHits,
                report.dmavReplaySeconds * 1e3);
  }
  if (report.peakDDSize > 0) {
    std::printf("peak DD size: %zu nodes", report.peakDDSize);
    if (report.dmavModelCost > 0) {
      std::printf("; model cost %.3e MACs", report.dmavModelCost);
    }
    std::printf("\n");
  }
  if (!report.ordering.empty()) {
    std::printf("ordering (top level first):");
    for (std::size_t l = report.ordering.size(); l-- > 0;) {
      std::printf(" q%d", static_cast<int>(report.ordering[l]));
    }
    std::printf("\n");
  }
  std::printf("memory: ~%.1f MB accounted, %.1f MB RSS\n",
              report.memoryBytes / 1048576.0, currentRSS() / 1048576.0);
  if (!report.metrics.empty()) {
    std::printf("obs: %zu counters, %zu histograms", report.metrics.counters.size(),
                report.metrics.histograms.size());
    if (report.metrics.loadImbalance > 0) {
      std::printf(", worst pool imbalance %.2fx", report.metrics.loadImbalance);
    }
    if (report.metrics.droppedTraceEvents > 0) {
      std::printf(", %zu trace events dropped",
                  report.metrics.droppedTraceEvents);
    }
    std::printf("\n");
    for (const auto& phase : report.metrics.poolPhases) {
      std::printf("  pool phase %-18s %zu regions, %.3f ms wall, "
                  "imbalance %.2fx\n",
                  phase.phase.c_str(), phase.regions, phase.wallSeconds * 1e3,
                  phase.imbalance);
    }
  }
}

bool writeFile(const std::string& path, const std::string& content) {
  std::ofstream out{path};
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  std::printf("wrote %s\n", path.c_str());
  return true;
}

int runCli(const CliOptions& opt) {
  const qc::Circuit circuit = buildCircuit(opt);
  const Qubit n = circuit.numQubits();
  std::printf("circuit %s: %d qubits, %zu gates, depth %zu\n",
              circuit.name().c_str(), n, circuit.numGates(), circuit.depth());

  if (!opt.exportQasm.empty() && !writeFile(opt.exportQasm, circuit.toQasm())) {
    return 1;
  }

  engine::EngineOptions eo;
  eo.threads = opt.threads != 0
                   ? opt.threads
                   : std::max(1u, std::thread::hardware_concurrency());
  if (par::globalPool().size() < eo.threads) {
    // An explicit --threads N should actually provide N workers, even when
    // hardware_concurrency (or FLATDD_THREADS) reports fewer; safe here —
    // no parallel region has launched yet.
    par::resizePool(eo.threads);
  }
  eo.passes = opt.passes;
  eo.seed = opt.seed;  // stamped into the report; derives the sampling rng
  eo.recordPerGate = !opt.traceCsv.empty();
  const bool tracing = !opt.traceJson.empty();
  eo.enableObs = tracing || opt.obs;

  // The RSS sampler runs for the whole simulation and is joined before the
  // trace export (the rings require a quiescent reader).
  obs::setThreadName("main");
  obs::RssSampler rssSampler;
  if (tracing) {
    rssSampler.start();
  }

  engine::SimulationEngine sim{eo};
  const engine::RunReport report = sim.run(opt.backend, circuit);
  rssSampler.stop();
  engine::Backend& backend = sim.backend();

  if (tracing && !writeFile(opt.traceJson, obs::exportChromeTrace())) {
    return 1;
  }

  printTopOutcomes(backend.stateVector(), n, opt.top);
  if (opt.shots > 0) {
    Xoshiro256 rng{opt.seed ^ 0xf1a7ddULL};
    printHistogram(backend.sample(opt.shots, rng), n, opt.top);
  }
  std::printf("runtime: %.3f s\n", report.totalSeconds);

  if (opt.stats) {
    printStats(report);
  }
  if (!opt.reportJson.empty() && !writeFile(opt.reportJson, report.toJson())) {
    return 1;
  }
  if (!opt.reportCsv.empty() && !writeFile(opt.reportCsv, report.toCsv())) {
    return 1;
  }
  if (!opt.traceCsv.empty() &&
      !writeFile(opt.traceCsv, report.perGateCsv())) {
    return 1;
  }
  if (!opt.dotFile.empty()) {
    const std::string dot = backend.exportDot();
    if (dot.empty()) {
      std::fprintf(stderr,
                   "--dot: backend %s has no DD state representation\n",
                   opt.backend.c_str());
      return 1;
    }
    if (!writeFile(opt.dotFile, dot)) {
      return 1;
    }
  }
  return 0;
}

std::vector<std::string> splitCommaList(const std::string& list) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string item =
        list.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!item.empty()) {
      out.push_back(item);
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value after %s\n", argv[i]);
      std::exit(1);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      printHelp();
      return 0;
    } else if (arg == "--list-backends") {
      const auto& factory = fdd::engine::BackendFactory::instance();
      for (const auto& name : factory.registeredNames()) {
        std::printf("%-10s %s\n", name.c_str(),
                    factory.describe(name).c_str());
      }
      std::printf("kernel dispatch: %s (d=%u lanes)\n",
                  fdd::simd::toString(fdd::simd::activeTier()),
                  fdd::simd::lanes());
      return 0;
    } else if (arg == "--circuit") {
      opt.circuit = need(i);
    } else if (arg == "--qasm") {
      opt.qasmFile = need(i);
    } else if (arg == "--qubits") {
      opt.qubits = static_cast<fdd::Qubit>(std::atoi(need(i)));
    } else if (arg == "--depth") {
      opt.depth = static_cast<unsigned>(std::atoi(need(i)));
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(std::atoll(need(i)));
    } else if (arg == "--backend") {
      opt.backend = need(i);
    } else if (arg == "--threads") {
      opt.threads = static_cast<unsigned>(std::atoi(need(i)));
    } else if (arg == "--pass") {
      for (auto& pass : splitCommaList(need(i))) {
        opt.passes.push_back(std::move(pass));
      }
    } else if (arg == "--optimize") {
      opt.passes.emplace_back("optimize");
    } else if (arg == "--fusion") {
      const std::string mode = need(i);
      if (mode == "dmav") {
        opt.passes.emplace_back("fusion-dmav");
      } else if (mode == "kops") {
        opt.passes.emplace_back("fusion-kops");
      } else if (mode != "none") {
        std::fprintf(stderr, "unknown fusion mode: %s\n", mode.c_str());
        return 1;
      }
    } else if (arg == "--shots") {
      opt.shots = static_cast<std::size_t>(std::atoll(need(i)));
    } else if (arg == "--top") {
      opt.top = static_cast<std::size_t>(std::atoll(need(i)));
    } else if (arg == "--stats") {
      opt.stats = true;
    } else if (arg == "--report") {
      opt.reportJson = need(i);
    } else if (arg == "--report-csv") {
      opt.reportCsv = need(i);
    } else if (arg == "--trace") {
      opt.traceJson = need(i);
    } else if (arg == "--trace-csv") {
      opt.traceCsv = need(i);
    } else if (arg == "--obs") {
      opt.obs = true;
    } else if (arg == "--dot") {
      opt.dotFile = need(i);
    } else if (arg == "--export-qasm") {
      opt.exportQasm = need(i);
    } else {
      std::fprintf(stderr, "unknown option: %s (try --help)\n", arg.c_str());
      return 1;
    }
  }
  if (opt.circuit.empty() && opt.qasmFile.empty()) {
    opt.circuit = "supremacy";
  }
  try {
    return runCli(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
