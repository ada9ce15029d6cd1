// The built-in Backend adapters — thin wrappers translating the uniform
// engine API onto sim::DDSimulator, sim::ArraySimulator (both indexing
// modes) and flat::FlatDDSimulator — plus the BackendFactory registry.

#include <stdexcept>
#include <utility>

#include "common/timing.hpp"
#include "engine/backend_factory.hpp"
#include "flatdd/flatdd_simulator.hpp"
#include "sim/array_simulator.hpp"
#include "sim/dd_simulator.hpp"

namespace fdd::engine {

namespace {

class DDBackend final : public Backend {
 public:
  DDBackend(Qubit nQubits, const EngineOptions& options)
      : sim_{nQubits, options.tolerance}, record_{options.recordPerGate} {}

  [[nodiscard]] std::string name() const override { return "dd"; }
  [[nodiscard]] Qubit numQubits() const override { return sim_.numQubits(); }

  void reset() override {
    sim_.reset();
    trace_.clear();
    seconds_ = 0;
  }
  void setState(std::span<const Complex> amplitudes) override {
    sim_.setState(amplitudes);
  }

  void applyOperation(const qc::Operation& op) override {
    if (!record_) {
      sim_.applyOperation(op);
      return;
    }
    Stopwatch sw;
    sim_.applyOperation(op);
    const double s = sw.seconds();
    seconds_ += s;
    trace_.push_back(GateReport{sim_.gatesApplied() - 1, "dd", s,
                                sim_.stateNodeCount()});
  }

  void simulate(const qc::Circuit& circuit) override {
    if (!record_) {
      sim_.simulate(circuit);
      return;
    }
    for (const auto& op : circuit) {
      applyOperation(op);
    }
  }

  [[nodiscard]] Complex amplitude(Index i) const override {
    return sim_.amplitude(i);
  }
  [[nodiscard]] AlignedVector<Complex> stateVector() const override {
    return sim_.stateVector();
  }
  [[nodiscard]] std::vector<Index> sample(std::size_t shots,
                                          Xoshiro256& rng) const override {
    return sim_.sample(shots, rng);
  }
  [[nodiscard]] std::size_t memoryBytes() const override {
    return sim_.memoryBytes();
  }

  void fillReport(RunReport& report) const override {
    report.ddGates = sim_.gatesApplied();
    report.peakDDSize = sim_.package().stats().peakVNodes;
    if (record_) {
      report.ddPhaseSeconds = seconds_;
      report.perGate = trace_;
    }
  }

  [[nodiscard]] std::string exportDot() const override {
    return sim_.package().toDot(sim_.state());
  }

 private:
  sim::DDSimulator sim_;
  bool record_;
  std::vector<GateReport> trace_;
  double seconds_ = 0;
};

class ArrayBackend final : public Backend {
 public:
  ArrayBackend(Qubit nQubits, const EngineOptions& options,
               sim::ArrayIndexing indexing, std::string name)
      : sim_{nQubits, options.toArrayOptions(indexing)},
        name_{std::move(name)},
        record_{options.recordPerGate} {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] Qubit numQubits() const override { return sim_.numQubits(); }

  void reset() override {
    sim_.reset();
    trace_.clear();
    gates_ = 0;
  }
  void setState(std::span<const Complex> amplitudes) override {
    sim_.setState(amplitudes);
  }

  void applyOperation(const qc::Operation& op) override {
    if (!record_) {
      sim_.applyOperation(op);
      ++gates_;
      return;
    }
    Stopwatch sw;
    sim_.applyOperation(op);
    trace_.push_back(GateReport{gates_++, "array", sw.seconds(), 0});
  }

  void simulate(const qc::Circuit& circuit) override {
    for (const auto& op : circuit) {
      applyOperation(op);
    }
  }

  [[nodiscard]] Complex amplitude(Index i) const override {
    return sim_.amplitude(i);
  }
  [[nodiscard]] AlignedVector<Complex> stateVector() const override {
    return sim_.state();
  }
  [[nodiscard]] std::vector<Index> sample(std::size_t shots,
                                          Xoshiro256& rng) const override {
    std::vector<Index> out;
    out.reserve(shots);
    const fp totalNorm = sim_.norm();  // one scan for all shots
    for (std::size_t s = 0; s < shots; ++s) {
      out.push_back(sim_.sample(rng, totalNorm));
    }
    return out;
  }
  [[nodiscard]] std::size_t memoryBytes() const override {
    return sim_.memoryBytes();
  }

  void fillReport(RunReport& report) const override {
    if (record_) {
      report.perGate = trace_;
    }
  }

 private:
  sim::ArraySimulator sim_;
  std::string name_;
  bool record_;
  std::vector<GateReport> trace_;
  std::size_t gates_ = 0;
};

class FlatDDBackend final : public Backend {
 public:
  FlatDDBackend(Qubit nQubits, const EngineOptions& options)
      : sim_{nQubits, options.toFlatOptions()} {}

  [[nodiscard]] std::string name() const override { return "flatdd"; }
  [[nodiscard]] Qubit numQubits() const override { return sim_.numQubits(); }

  void reset() override { sim_.reset(); }
  void setState(std::span<const Complex> amplitudes) override {
    sim_.setState(amplitudes);
  }

  void applyOperation(const qc::Operation& op) override {
    sim_.applyOperation(op);
  }
  void simulate(const qc::Circuit& circuit) override {
    sim_.simulate(circuit);
  }

  [[nodiscard]] Complex amplitude(Index i) const override {
    return sim_.amplitude(i);
  }
  [[nodiscard]] AlignedVector<Complex> stateVector() const override {
    return sim_.stateVector();
  }
  [[nodiscard]] std::vector<Index> sample(std::size_t shots,
                                          Xoshiro256& rng) const override {
    return sim_.sample(shots, rng);
  }
  [[nodiscard]] std::size_t memoryBytes() const override {
    return sim_.memoryBytes();
  }

  void fillReport(RunReport& report) const override {
    const flat::FlatDDStats& st = sim_.stats();
    report.converted = st.converted;
    report.conversionGateIndex = st.conversionGateIndex;
    report.conversionSeconds = st.conversionSeconds;
    report.ddPhaseSeconds = st.ddPhaseSeconds;
    report.dmavPhaseSeconds = st.dmavPhaseSeconds;
    report.fusionSeconds = st.fusionSeconds;
    report.ddGates = st.ddGates;
    report.dmavGates = st.dmavGates;
    report.cachedGates = st.cachedGates;
    report.cacheHits = st.cacheHits;
    report.dmavReplaySeconds = st.dmavReplaySeconds;
    report.peakDDSize = st.peakDDSize;
    report.dmavModelCost = st.dmavModelCost;
    report.perGate.clear();
    report.perGate.reserve(st.perGate.size());
    for (const auto& rec : st.perGate) {
      report.perGate.push_back(GateReport{
          rec.gateIndex, rec.inDDPhase ? "dd" : "dmav", rec.seconds,
          rec.ddSize});
    }
    report.ewmaLog.clear();
    report.ewmaLog.reserve(st.ewmaLog.size());
    for (const auto& tick : st.ewmaLog) {
      report.ewmaLog.push_back(EwmaTickReport{tick.gate, tick.ddSize,
                                              tick.ewma, tick.threshold,
                                              tick.triggered});
    }
  }

 private:
  flat::FlatDDSimulator sim_;
};

}  // namespace

BackendFactory& BackendFactory::instance() {
  static BackendFactory factory;
  return factory;
}

BackendFactory::BackendFactory() {
  registerBackend(
      "flatdd",
      "hybrid DD / flat-array simulator (the paper's contribution)",
      [](Qubit n, const EngineOptions& o) {
        return std::make_unique<FlatDDBackend>(n, o);
      });
  registerBackend(
      "dd", "sequential decision-diagram simulator (DDSIM-style baseline)",
      [](Qubit n, const EngineOptions& o) {
        return std::make_unique<DDBackend>(n, o);
      });
  registerBackend(
      "array",
      "threaded array state-vector simulator, O(1) bit-trick indexing",
      [](Qubit n, const EngineOptions& o) {
        return std::make_unique<ArrayBackend>(
            n, o, sim::ArrayIndexing::BitTricks, "array");
      });
  registerBackend(
      "array-mi",
      "array simulator with O(n) multi-index kernels (Quantum++-faithful)",
      [](Qubit n, const EngineOptions& o) {
        return std::make_unique<ArrayBackend>(
            n, o, sim::ArrayIndexing::MultiIndex, "array-mi");
      });
}

void BackendFactory::registerBackend(std::string name, std::string description,
                                     Creator creator) {
  const std::lock_guard lock{mutex_};
  entries_[std::move(name)] =
      Entry{std::move(description), std::move(creator)};
}

std::unique_ptr<Backend> BackendFactory::create(
    std::string_view name, Qubit nQubits, const EngineOptions& options) const {
  // Copy the creator out so backend construction (which may allocate a full
  // state vector) runs without the registry lock.
  Creator creator;
  {
    const std::lock_guard lock{mutex_};
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      std::string msg = "unknown backend: ";
      msg += name;
      msg += " (registered:";
      for (const auto& [key, entry] : entries_) {
        msg += ' ';
        msg += key;
      }
      msg += ')';
      throw std::invalid_argument(msg);
    }
    creator = it->second.creator;
  }
  return creator(nQubits, options);
}

bool BackendFactory::contains(std::string_view name) const {
  const std::lock_guard lock{mutex_};
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> BackendFactory::registeredNames() const {
  const std::lock_guard lock{mutex_};
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    names.push_back(key);
  }
  return names;
}

std::string BackendFactory::describe(std::string_view name) const {
  const std::lock_guard lock{mutex_};
  const auto it = entries_.find(name);
  return it == entries_.end() ? std::string{} : it->second.description;
}

}  // namespace fdd::engine
