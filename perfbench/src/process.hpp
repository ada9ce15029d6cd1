#pragma once
// Process-level measurements and note formatting shared by the workloads.

#include <sys/resource.h>

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace pb {

/// Set by main() as early as the process can: the start of setup_s, which
/// ends just before the first timed op.
extern const Clock::time_point kProcessStart;

[[nodiscard]] inline double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// User + system CPU seconds consumed by the whole process so far.
[[nodiscard]] inline double cpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Stores the tail of `samples`, times `scale`, under `name` with a note
/// naming its percentile and sample count. Returns false (and stores 0) when
/// the sample is too small for any tail percentile; the run then reports
/// incorrect.
inline bool putTail(std::map<std::string, double>& metrics,
                    std::vector<std::string>& notes, const std::string& name,
                    std::vector<double> samples, double scale = 1) {
  const std::optional<Tail> t = tail(std::move(samples));
  char line[200];
  if (!t) {
    std::snprintf(line, sizeof line,
                  "%s: too few samples for a tail (need >= 20)", name.c_str());
    notes.emplace_back(line);
    metrics[name] = 0;
    return false;
  }
  metrics[name] = t->value * scale;
  if (scale == 1) {
    std::snprintf(line, sizeof line, "%s = %.4f (p%g of n=%zu)", name.c_str(),
                  metrics[name], t->percentile, t->samples);
  } else {
    std::snprintf(line, sizeof line,
                  "%s = %.4f (p50 x p%g of time/family median = %.4f, n=%zu)",
                  name.c_str(), metrics[name], t->percentile, t->value,
                  t->samples);
  }
  notes.emplace_back(line);
  return true;
}

}  // namespace pb
