#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "circuits/generators.hpp"
#include "common/prng.hpp"

namespace pb {

using fdd::Index;
using fdd::Qubit;
using fdd::qc::Circuit;

namespace {

/// Independent stream per (seed, purpose, pass) so adding a family to one
/// workload never shifts another workload's instances.
fdd::Xoshiro256 streamFor(std::uint64_t seed, std::uint64_t purpose,
                          std::uint64_t pass = 0) {
  fdd::SplitMix64 mix{seed ^ (0x5eedULL + purpose * 0x9e3779b97f4a7c15ULL) ^
                      (pass * 0xa24baed4963ee407ULL)};
  return fdd::Xoshiro256{mix.next()};
}

Index bits(fdd::Xoshiro256& rng, Qubit n) {
  return rng.below(Index{1} << n);
}

std::vector<Instance> irregularLargePass(std::uint64_t seed,
                                         std::uint64_t pass) {
  fdd::Xoshiro256 rng = streamFor(seed, 3, pass);
  std::vector<Instance> roster;
  roster.push_back({"qaoa-18", fdd::circuits::qaoa(18, 2, rng())});
  roster.push_back({"knn-19", fdd::circuits::knn(19, rng())});
  roster.push_back({"swaptest-19", fdd::circuits::swapTest(19, rng())});
  roster.push_back({"qft-18", fdd::circuits::qft(18, bits(rng, 18))});
  return roster;
}

}  // namespace

bool isWorkload(std::string_view name) {
  return std::find(std::begin(kWorkloads), std::end(kWorkloads), name) !=
         std::end(kWorkloads);
}

bool isBatchWorkload(std::string_view name) {
  return isWorkload(name) && name != "serve";
}

std::vector<Instance> batchPass(std::string_view workload, std::uint64_t seed,
                                std::uint64_t pass) {
  if (workload == "irregular-large") {
    return irregularLargePass(seed, pass);
  }
  throw std::invalid_argument("not a batch workload: " +
                              std::string{workload});
}

SessionScripts::SessionScripts(std::uint64_t seed) : seed_{seed} {
  // The shared template ansatz: kAppliesPerSession hardware-efficient
  // layers (RY/RZ column + CX ring) per width, identical in every templated
  // session of that width.
  fdd::Xoshiro256 rng = streamFor(seed, 4);
  for (const Qubit n : kSessionWidths) {
    std::vector<std::string> batches;
    for (std::size_t b = 0; b < kAppliesPerSession; ++b) {
      batches.push_back(fdd::circuits::dnn(n, 1, rng()).toQasm());
    }
    templates_.push_back(std::move(batches));
  }
}

SessionScript SessionScripts::at(std::size_t index) const {
  fdd::Xoshiro256 rng = streamFor(seed_, 5, index);
  SessionScript s;
  s.index = index;
  const std::size_t width = (index / 2) % std::size(kSessionWidths);
  s.qubits = kSessionWidths[width];
  s.templated = index % 2 == 0;
  s.seed = rng();
  if (s.templated) {
    s.batches = templates_[width];
  } else {
    const auto gates = 3 * static_cast<std::size_t>(s.qubits);
    for (std::size_t b = 0; b < kAppliesPerSession; ++b) {
      s.batches.push_back(
          fdd::circuits::randomUniversal(s.qubits, gates, rng()).toQasm());
    }
  }
  s.batches.push_back(
      fdd::circuits::randomUniversal(s.qubits, kBranchGates, rng()).toQasm());
  for (std::size_t r = 0; r < s.batches.size() * kAmplitudeReads; ++r) {
    s.amplitudeIndices.push_back(bits(rng, s.qubits));
  }
  return s;
}

std::string describe(const std::vector<Instance>& roster) {
  std::string out;
  for (const Instance& inst : roster) {
    out += inst.family + "\n" + inst.circuit.toQasm() + "\n";
  }
  return out;
}

std::string describe(const std::vector<SessionScript>& sessions) {
  std::string out;
  for (const SessionScript& s : sessions) {
    out += "session " + std::to_string(s.index) + " qubits=" +
           std::to_string(s.qubits) + " templated=" +
           std::to_string(s.templated) + " seed=" + std::to_string(s.seed) +
           " amplitudes=";
    for (const Index i : s.amplitudeIndices) {
      out += std::to_string(i) + ",";
    }
    out += "\n";
    for (const std::string& batch : s.batches) {
      out += batch + "\n";
    }
  }
  return out;
}

}  // namespace pb
