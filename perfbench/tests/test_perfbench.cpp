// The benchmark's own tests: inputs depend on the seed alone, the tail
// helper keeps ten samples beyond every percentile it reports, and the
// metric catalogue matches BENCHMARK.json name for name, unit for unit.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/prng.hpp"
#include "metrics.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

std::vector<pb::SessionScript> firstSessions(std::uint64_t seed,
                                             std::size_t count) {
  const pb::SessionScripts scripts{seed};
  std::vector<pb::SessionScript> sessions;
  for (std::size_t i = 0; i < count; ++i) {
    sessions.push_back(scripts.at(i));
  }
  return sessions;
}

TEST(Inputs, SameSeedGivesByteIdenticalPasses) {
  for (const std::string_view w : pb::kWorkloads) {
    if (!pb::isBatchWorkload(w)) {
      continue;
    }
    EXPECT_EQ(pb::describe(pb::batchPass(w, 7, 3)),
              pb::describe(pb::batchPass(w, 7, 3)))
        << w;
  }
}

TEST(Inputs, DifferentSeedOrPassGivesDifferentInstances) {
  for (const std::string_view w : pb::kWorkloads) {
    if (!pb::isBatchWorkload(w)) {
      continue;
    }
    EXPECT_NE(pb::describe(pb::batchPass(w, 7, 3)),
              pb::describe(pb::batchPass(w, 8, 3)))
        << w;
    EXPECT_NE(pb::describe(pb::batchPass(w, 7, 3)),
              pb::describe(pb::batchPass(w, 7, 4)))
        << w;
  }
}

TEST(Inputs, SameSeedGivesByteIdenticalSessionScripts) {
  EXPECT_EQ(pb::describe(firstSessions(11, 24)),
            pb::describe(firstSessions(11, 24)));
  EXPECT_NE(pb::describe(firstSessions(11, 24)),
            pb::describe(firstSessions(12, 24)));
}

TEST(Inputs, SessionKindsRotate) {
  const auto sessions = firstSessions(3, 24);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    EXPECT_EQ(sessions[i].index, i);
    EXPECT_EQ(sessions[i].templated, i % 2 == 0);
    constexpr fdd::Qubit kWidths[] = {10, 12, 14};
    EXPECT_EQ(sessions[i].qubits, kWidths[(i / 2) % 3]);
    EXPECT_EQ(sessions[i].batches.size(), pb::kAppliesPerSession + 1);
    if (i >= 6 && sessions[i].templated) {
      EXPECT_EQ(sessions[i].batches[0], sessions[i - 6].batches[0]);
    }
  }
}

TEST(Tail, NeverReportsAPercentileWithFewerThanTenBeyond) {
  fdd::Xoshiro256 rng{5};
  for (std::size_t n = 0; n <= 3000; n += (n < 60 ? 1 : 37)) {
    std::vector<double> samples(n);
    for (double& s : samples) {
      s = rng.uniform();
    }
    const auto t = pb::tail(samples);
    if (n < 20) {
      EXPECT_FALSE(t.has_value()) << n;
      continue;
    }
    ASSERT_TRUE(t.has_value()) << n;
    EXPECT_EQ(t->samples, n);
    std::size_t beyond = 0;
    for (const double s : samples) {
      beyond += s > t->value;
    }
    EXPECT_GE(beyond, pb::kTailBeyond) << "n=" << n << " p" << t->percentile;
  }
}

TEST(Tail, PicksTheHighestQualifyingPercentile) {
  std::vector<double> samples(1000);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<double>(i);
  }
  const auto t = pb::tail(samples);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->percentile, 99);  // p99.9 would leave only one beyond
  EXPECT_EQ(t->value, 989);
}

TEST(Stats, MedianAndGeomean) {
  EXPECT_EQ(pb::median({3, 1, 2}), 2);
  EXPECT_EQ(pb::median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(pb::median({}), 0);
  const std::vector<double> v{1, 100};
  EXPECT_DOUBLE_EQ(pb::geomean(v), 10);
}

void expectListMatches(const fdd::json::Value& bench, const char* kind,
                       std::span<const pb::MetricDef> defs) {
  const auto& list = *bench.object()->at(kind).array();
  ASSERT_EQ(list.size(), defs.size()) << kind;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const fdd::json::Object& entry = *list[i].object();
    EXPECT_EQ(*entry.at("name").string(), defs[i].name) << kind << " " << i;
    EXPECT_EQ(*entry.at("unit").string(), defs[i].unit) << defs[i].name;
    EXPECT_FALSE(defs[i].unit.empty()) << defs[i].name;
  }
}

TEST(Catalogue, MatchesBenchmarkJson) {
  std::ifstream in{PERFBENCH_JSON};
  ASSERT_TRUE(in) << PERFBENCH_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const fdd::json::Value bench = fdd::json::parse(text.str());
  expectListMatches(bench, "end_to_end", pb::kEndToEnd);
  expectListMatches(bench, "per_layer", pb::kPerLayer);

  const auto& workloads = *bench.object()->at("workloads").array();
  ASSERT_EQ(workloads.size(), std::size(pb::kWorkloads));
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    EXPECT_EQ(*workloads[i].object()->at("name").string(),
              pb::kWorkloads[i]);
  }
}

}  // namespace
