#pragma once
// Workload inputs, generated from the workload seed only. The simulator
// receives nothing but these circuits and session scripts, so the same seed
// reproduces every input byte for byte (tests/test_perfbench.cpp).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "qc/circuit.hpp"

namespace pb {

/// The benchmark's workloads: irregular-large loads the flatdd conversion,
/// plan compiler and DMAV replay through begin/apply/sample; serve loads the
/// service.
inline constexpr std::string_view kWorkloads[] = {"irregular-large",
                                                  "serve"};

[[nodiscard]] bool isWorkload(std::string_view name);
[[nodiscard]] bool isBatchWorkload(std::string_view name);

/// One batch circuit. Its output is checked against the array backend's
/// state, amplitude by amplitude.
struct Instance {
  std::string family;  // e.g. "qaoa-18": one entry per roster slot
  fdd::qc::Circuit circuit;
};

/// Pass `pass` of a batch workload: every family once, each a fresh
/// instance whose parameters (angles, graphs, inputs) come from
/// `seed` and `pass`. Every pass draws new instances, so a run's per-family
/// medians are taken over many instances and do not hinge on one draw.
[[nodiscard]] std::vector<Instance> batchPass(std::string_view workload,
                                              std::uint64_t seed,
                                              std::uint64_t pass);

/// One serve session: open; kAppliesPerSession QASM applies, each followed
/// by a sample and amplitude reads, with a checkpoint after the first; then
/// a restore to that checkpoint, a short branch apply, its reads, close.
struct SessionScript {
  std::size_t index = 0;
  fdd::Qubit qubits = 0;
  bool templated = false;       // replays the shared template ansatz
  std::uint64_t seed = 0;       // the session's sampling seed
  std::vector<std::string> batches;  // QASM per apply; the last is the branch
  std::vector<fdd::Index> amplitudeIndices;  // kAmplitudeReads per apply
};

inline constexpr std::size_t kAppliesPerSession = 3;
/// Gates of the branch applied after the restore. An apply on a restored
/// irregular state runs in the DD phase at the seed (FINDINGS.md, finding
/// 6), ~250 ms per gate at 14 qubits, so the branch is kept short.
inline constexpr std::size_t kBranchGates = 2;
inline constexpr std::size_t kAmplitudeReads = 2;
inline constexpr std::size_t kServeShots = 256;
/// Session widths; kinds rotate over width x template/unique, so every run
/// has the same mix.
inline constexpr fdd::Qubit kSessionWidths[] = {10, 12, 14};

/// The serve workload's sessions. Session `index` depends only on the seed
/// and the index, so a run generates each script when the session starts
/// and has no cap on how many sessions its window holds.
class SessionScripts {
 public:
  explicit SessionScripts(std::uint64_t seed);
  [[nodiscard]] SessionScript at(std::size_t index) const;

 private:
  std::uint64_t seed_;
  std::vector<std::vector<std::string>> templates_;  // per width
};
/// Canonical text of a roster or a session list, for the determinism tests.
[[nodiscard]] std::string describe(const std::vector<Instance>& roster);
[[nodiscard]] std::string describe(const std::vector<SessionScript>& sessions);

}  // namespace pb
