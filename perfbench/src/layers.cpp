#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "stats.hpp"

namespace pb {

void LayerSums::add(const fdd::engine::RunReport& r) {
  ++reports;
  pipeline += r.pipelineSeconds;
  dd += std::max(0.0, r.ddPhaseSeconds - r.conversionSeconds -
                          r.reorderSeconds);
  conversion += r.conversionSeconds;
  reorder += r.reorderSeconds;
  fusion += r.fusionSeconds;
  compile += r.planCompileSeconds;
  replay += r.dmavReplaySeconds;
  dmavOther += std::max(0.0, r.dmavPhaseSeconds - r.planCompileSeconds -
                                 r.dmavReplaySeconds);
  ddGates += r.ddGates;
  dmavGates += r.dmavGates;
  diagRunGates += r.diagRunGates;
  planHits += r.planCacheHits;
  planMisses += r.planCacheMisses;
  planCompiles += r.planCompiles;
  replayBytes += static_cast<double>(r.dmavGates) *
                 std::ldexp(32.0, static_cast<int>(r.qubits));
  accountedBytes =
      std::max(accountedBytes, static_cast<double>(r.memoryBytes));
  peakNodes = std::max(peakNodes, r.peakDDSize);
  if (r.converted) {
    ++converted;
    conversionSeconds.push_back(r.conversionSeconds);
    conversionGateFrac += ratio(static_cast<double>(r.conversionGateIndex),
                                static_cast<double>(r.gates));
  }
}

double LayerSums::phases() const {
  double sum = 0;
  for (const auto& [name, seconds] : rows()) {
    sum += seconds;
  }
  return sum;
}

std::vector<std::pair<const char*, double>> LayerSums::rows() const {
  return {{"engine.pipeline", pipeline},
          {"dd (phase minus conversion)", dd},
          {"flatdd.conversion", conversion},
          {"flatdd.reorder", reorder},
          {"flatdd.gate_dds+fusion", fusion},
          {"flatdd.plan_compile", compile},
          {"flatdd.replay", replay},
          {"flatdd.dmav_other", dmavOther}};
}

void putLayerMetrics(std::map<std::string, double>& m, const LayerSums& s,
                     double opTime) {
  m["dd.phase_share"] = ratio(s.dd, opTime);
  m["dd.us_per_gate"] = ratio(s.dd, static_cast<double>(s.ddGates)) * 1e6;
  m["dd.peak_nodes"] = static_cast<double>(s.peakNodes);
  m["flatdd.converted_frac"] = ratio(static_cast<double>(s.converted),
                                     static_cast<double>(s.reports));
  m["flatdd.conversion_gate_frac"] =
      ratio(s.conversionGateFrac, static_cast<double>(s.converted));
  m["flatdd.conversion_ms"] = median(s.conversionSeconds) * 1e3;
  m["flatdd.plan_compile_share"] = ratio(s.compile, opTime);
  m["flatdd.plan_us_per_compile"] =
      ratio(s.compile, static_cast<double>(s.planCompiles)) * 1e6;
  m["flatdd.plan_hit_ratio"] =
      ratio(static_cast<double>(s.planHits),
            static_cast<double>(s.planHits + s.planMisses));
  m["flatdd.replay_share"] = ratio(s.replay, opTime);
  m["flatdd.replay_gbps_computed"] = ratio(s.replayBytes, s.replay) * 1e-9;
  m["flatdd.diag_run_gate_frac"] =
      ratio(static_cast<double>(s.diagRunGates),
            static_cast<double>(s.dmavGates));
  m["flatdd.accounted_mb"] = s.accountedBytes / (1024.0 * 1024.0);
}

void putBudget(std::vector<std::string>& notes, const std::string& title,
               const std::vector<std::pair<const char*, double>>& rows,
               double total) {
  notes.push_back(title);
  double covered = 0;
  const auto line = [&](const char* name, double seconds) {
    char text[128];
    std::snprintf(text, sizeof text, "  %-36s %7.2f%%  %10.4f s", name,
                  100 * ratio(seconds, total), seconds);
    notes.emplace_back(text);
  };
  for (const auto& [name, seconds] : rows) {
    line(name, seconds);
    covered += seconds;
  }
  line("(not covered)", std::max(0.0, total - covered));
}

}  // namespace pb
