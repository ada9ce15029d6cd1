#pragma once
// The metric catalogue. BENCHMARK.json lists exactly these names and units
// (checked by tests/test_perfbench.cpp and again by run.py on every run);
// every run prints every metric of its kind, and a layer a workload does not
// load reads 0.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// Printed by untraced runs (--trace 0).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"circuit_ms_p50", "ms"},
    {"circuits_per_s", "1/s"},
    {"apply_ms_p50", "ms"},
    {"read_ms_p50", "ms"},
    {"peak_rss_mb", "MB"},
};

/// Printed by traced runs (--trace 1). The tails come first: on a shared
/// 4-vCPU host they moved 10-100% between runs, too much for a bound, so
/// they are reported here (and as notes in every run) without one.
inline constexpr MetricDef kPerLayer[] = {
    {"circuit_ms_tail", "ms"},
    {"apply_ms_tail", "ms"},
    {"read_ms_tail", "ms"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.queue_wait_ms_tail", "ms"},
    {"service.exec_ms_p50.apply", "ms"},
    {"service.exec_ms_p50.sample", "ms"},
    {"service.exec_ms_p50.amplitude", "ms"},
    {"service.protocol_us_p50", "us"},
    {"service.apply_inflation", "ratio"},
    {"service.inflight_max", "count"},
    {"service.nonidentical_answers", "count"},
    {"service.gen_lag_ms_tail", "ms"},
    {"qasm.parse_us_per_gate", "us"},
    {"engine.begin_ms", "ms"},
    {"dd.phase_share", "ratio"},
    {"dd.us_per_gate", "us"},
    {"dd.peak_nodes", "count"},
    {"dd.peak_nodes_spread", "ratio"},
    {"flatdd.converted_frac", "ratio"},
    {"flatdd.conversion_gate_frac", "ratio"},
    {"flatdd.conversion_ms", "ms"},
    {"flatdd.plan_compile_share", "ratio"},
    {"flatdd.plan_us_per_compile", "us"},
    {"flatdd.plan_hit_ratio", "ratio"},
    {"flatdd.replay_share", "ratio"},
    {"flatdd.replay_gbps_computed", "GB/s"},
    {"flatdd.diag_run_gate_frac", "ratio"},
    {"flatdd.accounted_mb", "MB"},
    {"sim.sample_ms", "ms"},
    {"parallel.cpu_util", "ratio"},
    {"parallel.speedup", "ratio"},
    {"coverage", "ratio"},
    {"trace_overhead", "ratio"},
};

/// What one workload run produced.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, double> metrics;  // metric name -> value
  /// Human-readable lines printed before the final JSON line: tail
  /// percentiles and sample counts, the layer budget, failures.
  std::vector<std::string> notes;
};

/// Run parameters shared by every workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Run the set-up only and report setup_s alone: run.py starts a few such
  /// processes beside the measured one, and setup_s is their median.
  bool setupOnly = false;
  std::string tracePath;  // Chrome trace output of a traced run
  unsigned threads = 1;   // nproc: batch EngineOptions::threads, clients
};

/// Amplitude tolerance of every output check (examples/supremacy_race).
inline constexpr double kAmplitudeTol = 1e-8;

Result runBatch(const RunConfig& config);
Result runServe(const RunConfig& config);

}  // namespace pb
