// perfbench_driver: runs one workload in this process and prints its
// metrics. Normally started by perfbench/run.py, which builds it, adds
// provenance and checks the metric names against BENCHMARK.json.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out FILE] [--setup-only]
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics ({"name": {"value": v, "unit": u}}; end-to-end metrics untraced,
// per-layer metrics traced). Earlier lines are notes for people. With
// --setup-only the process runs the workload's set-up, from process start
// to where the first timed op would begin, and prints {"setup_s": v}.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>
#include <thread>

#include "common/json.hpp"
#include "metrics.hpp"
#include "process.hpp"
#include "simd/kernels.hpp"
#include "workloads.hpp"

namespace pb {
const Clock::time_point kProcessStart = Clock::now();
}

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--setup-only]\n",
               error.c_str());
  std::exit(2);
}

std::string resultLine(const pb::Result& result,
                       std::span<const pb::MetricDef> defs) {
  fdd::json::Writer w;
  w.beginObject();
  w.field("correct", result.failed == 0);
  w.field("attempted", result.attempted);
  w.field("failed", result.failed);
  w.beginObjectIn("metrics");
  for (const pb::MetricDef& def : defs) {
    const auto it = result.metrics.find(std::string{def.name});
    if (it == result.metrics.end()) {
      throw std::logic_error("metric not measured: " + std::string{def.name});
    }
    w.beginObjectIn(def.name);
    w.field("value", it->second);
    w.field("unit", def.unit);
    w.endObject();
  }
  w.endObject();
  w.endObject();
  return w.take();
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunConfig config;
  config.threads = std::max(1U, std::thread::hardware_concurrency());
  bool haveSeed = false;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(arg + " expects a value");
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        config.workload = value();
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
        haveSeed = true;
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") {
          usage("--trace takes 0 or 1");
        }
        config.trace = t == "1";
        haveTrace = true;
      } else if (arg == "--trace-out") {
        config.tracePath = value();
      } else if (arg == "--setup-only") {
        config.setupOnly = true;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!pb::isWorkload(config.workload)) {
    usage("unknown workload '" + config.workload + "'");
  }
  if (!haveSeed || !haveTrace || !(config.seconds > 0)) {
    usage("--seed, --trace and a positive --seconds are required");
  }

  try {
    const pb::Result result = pb::isBatchWorkload(config.workload)
                                  ? pb::runBatch(config)
                                  : pb::runServe(config);
    if (config.setupOnly) {
      fdd::json::Writer w;
      w.beginObject();
      w.field("setup_s", result.metrics.at("setup_s"));
      w.endObject();
      std::printf("%s\n", w.take().c_str());
      return 0;
    }
    const std::span<const pb::MetricDef> defs =
        config.trace ? std::span<const pb::MetricDef>{pb::kPerLayer}
                     : std::span<const pb::MetricDef>{pb::kEndToEnd};
    const std::string line = resultLine(result, defs);
    std::printf("workload %s seed %llu threads %u simd %s\n",
                config.workload.c_str(),
                static_cast<unsigned long long>(config.seed), config.threads,
                fdd::simd::toString(fdd::simd::activeTier()));
    for (const std::string& note : result.notes) {
      std::printf("%s\n", note.c_str());
    }
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
