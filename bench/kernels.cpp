// Kernel microbenchmark suite: every dispatched span kernel timed under
// every tier available on this host (setDispatchTier flips the table
// in-process, so scalar, AVX2 and AVX-512 run in one invocation on identical
// buffers). Reports ns/amplitude and the per-tier speedup per kernel, per
// working-set size, and — for the comb kernel — per stride, and emits
// BENCH_kernels.json for CI.
//
// The speedup columns are the d of Eq. 6 made observable: the cost model
// divides the flat-array term by the *measured* effective width
// (simd/calibration.hpp), and the "calibration" JSON section is the source
// of those numbers — when hardware class changes, re-run this bench and
// refresh kCalibration in src/simd/calibration.cpp.

#include <array>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "common/aligned.hpp"
#include "common/harness.hpp"
#include "common/prng.hpp"
#include "common/timing.hpp"
#include "obs/metrics.hpp"
#include "simd/calibration.hpp"
#include "simd/kernels.hpp"

namespace fdd::bench {
namespace {

constexpr int kNumTiers = 3;  // indexed by DispatchTier

struct KernelCase {
  std::string kernel;
  std::size_t amps;    // amplitudes touched per call
  std::size_t stride;  // 1 for contiguous kernels
  std::function<void()> run;
};

struct KernelResult {
  std::string kernel;
  std::size_t amps;
  std::size_t stride;
  std::array<double, kNumTiers> nsPerAmp{};  // 0 when the tier is unavailable
};

std::vector<simd::DispatchTier> availableTiers() {
  std::vector<simd::DispatchTier> tiers{simd::DispatchTier::Scalar};
  if (simd::tierAvailable(simd::DispatchTier::Avx2)) {
    tiers.push_back(simd::DispatchTier::Avx2);
  }
  if (simd::tierAvailable(simd::DispatchTier::Avx512)) {
    tiers.push_back(simd::DispatchTier::Avx512);
  }
  return tiers;
}

AlignedVector<Complex> randomBuf(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  AlignedVector<Complex> v(n);
  for (auto& z : v) {
    z = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  return v;
}

/// Best-of-5 timing of `iters` back-to-back calls, in ns per amplitude.
double timeKernel(const KernelCase& c, std::size_t iters) {
  c.run();  // warm the buffers and the dispatch table
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    Stopwatch sw;
    for (std::size_t i = 0; i < iters; ++i) {
      c.run();
    }
    const double s = sw.seconds();
    if (rep == 0 || s < best) {
      best = s;
    }
  }
  return best * 1e9 / (static_cast<double>(iters) * static_cast<double>(c.amps));
}

// Disabled-mode observability overhead: the same 4096-amplitude scale kernel
// timed with and without an FDD_TIMED_SCOPE + FDD_OBS_COUNT call site while
// obs stays runtime-disabled (the default). The instrumented path then costs
// one relaxed atomic load and a branch per call, which must disappear in the
// noise of even this smallest bench working set — the tracing layer's
// contract is that compiled-in, switched-off instrumentation is free.
struct ObsOverhead {
  double plainNs = 0;         // per amplitude
  double instrumentedNs = 0;  // per amplitude
  double overheadPct = 0;     // (instrumented - plain) / plain * 100
  double budgetPct = 2.0;
  bool pass = false;
};

ObsOverhead measureObsOverhead() {
  constexpr std::size_t kAmps = std::size_t{1} << 12;
  static AlignedVector<Complex> out = randomBuf(kAmps, 6);
  static AlignedVector<Complex> x = randomBuf(kAmps, 7);
  const Complex a{0.6, 0.8};

  obs::setEnabled(false);  // measure the switched-off cost, explicitly
  const KernelCase plain{"scale", kAmps, 1,
                         [a] { simd::scale(out.data(), x.data(), a, kAmps); }};
  const KernelCase instrumented{
      "scale+obs", kAmps, 1, [a] {
        FDD_TIMED_SCOPE("bench.obs.scale");
        FDD_OBS_COUNT("bench.obs.calls");
        simd::scale(out.data(), x.data(), a, kAmps);
      }};

  const std::size_t iters = (std::size_t{1} << 22) / kAmps;
  ObsOverhead r;
  // Alternate the two variants and keep each one's best so a frequency ramp
  // or a noisy neighbour mid-run biases neither side; the per-call delta
  // being measured (~a nanosecond) is far below single-measurement noise,
  // so the min over many interleaved rounds is the only stable estimator.
  for (int round = 0; round < 7; ++round) {
    const double p = timeKernel(plain, iters);
    const double i = timeKernel(instrumented, iters);
    if (round == 0 || p < r.plainNs) {
      r.plainNs = p;
    }
    if (round == 0 || i < r.instrumentedNs) {
      r.instrumentedNs = i;
    }
  }
  r.overheadPct =
      r.plainNs > 0 ? (r.instrumentedNs - r.plainNs) / r.plainNs * 100 : 0;
  r.pass = r.overheadPct < r.budgetPct;
  return r;
}

constexpr std::size_t kMaxAmps = std::size_t{1} << 20;

// Shared buffers sized for the largest case; sink is volatile-ish via
// normSquared accumulation into a global-visible double.
AlignedVector<Complex>& bufOut() {
  static AlignedVector<Complex> v = randomBuf(kMaxAmps, 1);
  return v;
}
AlignedVector<Complex>& bufX() {
  static AlignedVector<Complex> v = randomBuf(kMaxAmps, 2);
  return v;
}

std::vector<KernelResult> runSuite() {
  static AlignedVector<Complex>& out = bufOut();
  static AlignedVector<Complex>& x = bufX();
  // The butterfly kernels mutate both operands in place, so they get their
  // own buffers; u is unitary and the scale factors are unit-modulus so
  // repeated application keeps every value in the normal double range
  // (decaying values hit denormals and skew timings by an order of
  // magnitude).
  static AlignedVector<Complex> bf1 = randomBuf(kMaxAmps, 4);
  static AlignedVector<Complex> bf2 = randomBuf(kMaxAmps, 5);
  static double sink = 0;
  const Complex a{0.6, 0.8};
  static const Complex u[4] = {{0.6, 0.0}, {0.8, 0.0}, {0.8, 0.0}, {-0.6, 0.0}};

  // Contiguous kernels sweep 2^12..2^20; the comb kernel (4 strides) runs
  // at three sizes to keep the suite a few seconds per tier.
  const std::vector<std::size_t> sizes = {
      std::size_t{1} << 12, std::size_t{1} << 14, std::size_t{1} << 16,
      std::size_t{1} << 18, kMaxAmps};
  const std::vector<std::size_t> combSizes = {
      std::size_t{1} << 12, std::size_t{1} << 16, kMaxAmps};
  std::vector<KernelCase> cases;
  for (const std::size_t n : sizes) {
    cases.push_back({"scale", n, 1,
                     [n, a] { simd::scale(out.data(), x.data(), a, n); }});
    cases.push_back({"scaleAccumulate", n, 1, [n, a] {
                       simd::scaleAccumulate(out.data(), x.data(), a, n);
                     }});
    cases.push_back({"accumulate", n, 1,
                     [n] { simd::accumulate(out.data(), x.data(), n); }});
    cases.push_back({"butterfly", n, 1, [n] {
                       simd::butterfly(bf1.data(), bf2.data(), u, n);
                     }});
    cases.push_back({"butterflyAdjacent", n, 1, [n] {
                       simd::butterflyAdjacent(bf1.data(), u, n / 2);
                     }});
    cases.push_back({"normSquared", n, 1, [n] {
                       sink += simd::normSquared(x.data(), n);
                     }});
  }
  for (const std::size_t n : combSizes) {
    // Combs at the shapes of a gate on a low qubit q: stride 2^(q+1) with
    // len = stride/2.
    for (const std::size_t stride : {2u, 8u, 64u, 256u}) {
      const std::size_t len = stride / 2;
      const std::size_t count = n / stride;
      const std::string tag = " s=" + std::to_string(stride);
      cases.push_back({"scaleStrided" + tag, count * len, stride,
                       [count, len, stride, a] {
                         simd::scaleStrided(out.data(), x.data(), a, count,
                                            len, stride);
                       }});
    }
  }

  // DMAV-shaped MAC: Run reads a streaming 2^20-amplitude input but
  // accumulates into block-sized output spans that stay cache-hot across
  // calls (Eq. 6's b buffers). One call sweeps the whole input, so the row
  // reports ns per input amplitude at a 2^20 working set without charging
  // the artificial cost of also streaming the output.
  static constexpr std::size_t kSpan = std::size_t{1} << 9;
  cases.push_back({"scaleAccumulate/hot-out", kMaxAmps, 1, [a] {
                     for (std::size_t off = 0; off < kMaxAmps; off += kSpan) {
                       simd::scaleAccumulate(out.data(), x.data() + off, a,
                                             kSpan);
                     }
                   }});

  const std::vector<simd::DispatchTier> tiers = availableTiers();
  std::vector<KernelResult> results;
  for (const KernelCase& c : cases) {
    // ~2^22 amplitudes of work per measurement keeps each case ~ms-scale.
    const std::size_t iters =
        std::max<std::size_t>(1, (std::size_t{1} << 22) / c.amps);
    KernelResult r;
    r.kernel = c.kernel;
    r.amps = c.amps;
    r.stride = c.stride;
    for (const simd::DispatchTier tier : tiers) {
      simd::setDispatchTier(tier);
      r.nsPerAmp[static_cast<int>(tier)] = timeKernel(c, iters);
    }
    results.push_back(r);
  }
  if (sink == 12345.6789) {  // defeat dead-code elimination of normSquared
    std::printf("%f\n", sink);
  }
  return results;
}

// ---------------------------------------------------------------------------
// Calibration: scalarNs / tierNs per kernel class at 2^20 amps — the
// measured effective widths that refresh kCalibration in
// src/simd/calibration.cpp (and through it Eq. 5/6 and the EWMA trigger).
// ---------------------------------------------------------------------------

struct CalibrationRow {
  const char* cls;
  simd::KernelClass kernelClass;
  std::array<double, kNumTiers> nsPerAmp{};
  std::array<double, kNumTiers> measuredWidth{};  // scalarNs / tierNs
  std::array<double, kNumTiers> tableWidth{};     // current kCalibration
};

std::vector<CalibrationRow> measureCalibration() {
  static AlignedVector<Complex>& out = bufOut();
  static AlignedVector<Complex>& x = bufX();
  static AlignedVector<Complex> bf = randomBuf(kMaxAmps, 31);
  static double sink = 0;
  const Complex a{0.6, 0.8};
  static const Complex u[4] = {
      {0.6, 0.0}, {0.8, 0.0}, {0.8, 0.0}, {-0.6, 0.0}};
  constexpr std::size_t n = kMaxAmps;

  // The Mac probe uses the DMAV shape (streaming input, cache-hot
  // block-sized output) — that is the memory pattern Eq. 6's sweep term
  // actually models; full-streaming MACs are DRAM-bound and would report
  // width ~1 regardless of tier.
  constexpr std::size_t kSpan = std::size_t{1} << 9;
  const std::vector<std::pair<simd::KernelClass, KernelCase>> probes = {
      {simd::KernelClass::Mac,
       {"scaleAccumulate/hot-out", n, 1, [a] {
          for (std::size_t off = 0; off < n; off += kSpan) {
            simd::scaleAccumulate(out.data(), x.data() + off, a, kSpan);
          }
        }}},
      {simd::KernelClass::Butterfly,
       {"butterfly", n, 1,
        [] { simd::butterfly(bf.data(), bf.data() + n / 2, u, n / 2); }}},
      {simd::KernelClass::Norm,
       {"normSquared", n, 1,
        [] { sink += simd::normSquared(x.data(), n); }}},
  };
  static const char* kClassNames[] = {"Mac", "Butterfly", "Norm"};

  std::vector<CalibrationRow> rows;
  const std::vector<simd::DispatchTier> tiers = availableTiers();
  for (const auto& [cls, c] : probes) {
    CalibrationRow row;
    row.cls = kClassNames[static_cast<int>(cls)];
    row.kernelClass = cls;
    for (const simd::DispatchTier tier : tiers) {
      simd::setDispatchTier(tier);
      row.nsPerAmp[static_cast<int>(tier)] = timeKernel(c, 4);
    }
    const double scalarNs =
        row.nsPerAmp[static_cast<int>(simd::DispatchTier::Scalar)];
    for (const simd::DispatchTier tier : tiers) {
      const int t = static_cast<int>(tier);
      row.measuredWidth[t] =
          row.nsPerAmp[t] > 0 ? scalarNs / row.nsPerAmp[t] : 0;
      row.tableWidth[t] =
          static_cast<double>(simd::calibratedLanes(cls, tier));
    }
    rows.push_back(row);
  }
  if (sink == 12345.6789) {
    std::printf("%f\n", sink);
  }
  return rows;
}

int run() {
  printPreamble("Kernel microbenchmarks — per-tier dispatched SIMD",
                "FlatDD (ICPP'24), Eq. 6 SIMD width d (Section 3.2.3)");
  const bool haveAvx2 = simd::tierAvailable(simd::DispatchTier::Avx2);
  const bool haveAvx512 = simd::tierAvailable(simd::DispatchTier::Avx512);
  std::printf("tiers: scalar%s%s\n\n", haveAvx2 ? ", avx2" : "",
              haveAvx512 ? ", avx512" : "");
  const simd::DispatchTier startupTier = simd::activeTier();

  const std::vector<KernelResult> results = runSuite();
  const std::vector<CalibrationRow> calibration = measureCalibration();
  simd::setDispatchTier(startupTier);

  const auto ns = [](const KernelResult& r, simd::DispatchTier t) {
    return r.nsPerAmp[static_cast<int>(t)];
  };
  Table table({"Kernel", "amps", "scalar ns/amp", "avx2 ns/amp",
               "avx512 ns/amp", "best speedup"});
  char buf[32];
  for (const KernelResult& r : results) {
    std::snprintf(buf, sizeof(buf), "%.3f",
                  ns(r, simd::DispatchTier::Scalar));
    std::string scalarCell = buf;
    std::snprintf(buf, sizeof(buf), "%.3f", ns(r, simd::DispatchTier::Avx2));
    std::string avx2Cell = haveAvx2 ? buf : "-";
    std::snprintf(buf, sizeof(buf), "%.3f",
                  ns(r, simd::DispatchTier::Avx512));
    std::string avx512Cell = haveAvx512 ? buf : "-";
    double bestNs = ns(r, simd::DispatchTier::Scalar);
    for (const simd::DispatchTier t :
         {simd::DispatchTier::Avx2, simd::DispatchTier::Avx512}) {
      if (ns(r, t) > 0 && ns(r, t) < bestNs) {
        bestNs = ns(r, t);
      }
    }
    const double speedup =
        bestNs > 0 ? ns(r, simd::DispatchTier::Scalar) / bestNs : 0;
    table.addRow({r.kernel, std::to_string(r.amps), scalarCell, avx2Cell,
                  avx512Cell, fmtRatio(speedup)});
  }
  table.print();
  std::printf("\n");

  Table calTable({"Class", "scalar ns", "avx2 width", "avx512 width",
                  "table avx2", "table avx512"});
  for (const CalibrationRow& row : calibration) {
    const int s = static_cast<int>(simd::DispatchTier::Scalar);
    const int a2 = static_cast<int>(simd::DispatchTier::Avx2);
    const int a5 = static_cast<int>(simd::DispatchTier::Avx512);
    std::snprintf(buf, sizeof(buf), "%.3f", row.nsPerAmp[s]);
    std::string scalarCell = buf;
    calTable.addRow({row.cls, scalarCell,
                     haveAvx2 ? fmtRatio(row.measuredWidth[a2]) : "-",
                     haveAvx512 ? fmtRatio(row.measuredWidth[a5]) : "-",
                     fmtRatio(row.tableWidth[a2]),
                     fmtRatio(row.tableWidth[a5])});
  }
  calTable.print();
  std::printf("(measured widths refresh kCalibration in "
              "src/simd/calibration.cpp)\n\n");

  const ObsOverhead obsOverhead = measureObsOverhead();
  std::printf("obs disabled-mode overhead (scale, 4096 amps): "
              "%.3f -> %.3f ns/amp, %+.2f%% (budget %.1f%%) %s\n\n",
              obsOverhead.plainNs, obsOverhead.instrumentedNs,
              obsOverhead.overheadPct, obsOverhead.budgetPct,
              obsOverhead.pass ? "PASS" : "FAIL");

  tools::JsonWriter w;
  w.beginObject();
  w.kv("bench", "kernels");
  w.kv("avx2Available", haveAvx2);
  w.kv("avx512Available", haveAvx512);
  w.kv("scalarLanes", 1);
  w.kv("avx2Lanes", haveAvx2 ? 4 : 0);
  w.kv("avx512Lanes", haveAvx512 ? 8 : 0);
  w.kv("bestTier", simd::toString(simd::bestAvailableTier()));
  w.key("kernels").beginArray();
  for (const KernelResult& r : results) {
    const double scalarNs = ns(r, simd::DispatchTier::Scalar);
    const double avx2Ns = ns(r, simd::DispatchTier::Avx2);
    const double avx512Ns = ns(r, simd::DispatchTier::Avx512);
    w.beginObject();
    w.kv("kernel", r.kernel);
    w.kv("amps", static_cast<std::uint64_t>(r.amps));
    w.kv("stride", static_cast<std::uint64_t>(r.stride));
    w.kv("scalarNsPerAmp", scalarNs);
    w.kv("avx2NsPerAmp", avx2Ns);
    w.kv("avx512NsPerAmp", avx512Ns);
    w.kv("avx2Speedup", avx2Ns > 0 ? scalarNs / avx2Ns : 0.0);
    w.kv("avx512Speedup", avx512Ns > 0 ? scalarNs / avx512Ns : 0.0);
    w.endObject();
  }
  w.endArray();
  w.key("calibration").beginArray();
  for (const CalibrationRow& row : calibration) {
    w.beginObject();
    w.kv("class", row.cls);
    w.kv("scalarNsPerAmp",
         row.nsPerAmp[static_cast<int>(simd::DispatchTier::Scalar)]);
    w.kv("avx2NsPerAmp",
         row.nsPerAmp[static_cast<int>(simd::DispatchTier::Avx2)]);
    w.kv("avx512NsPerAmp",
         row.nsPerAmp[static_cast<int>(simd::DispatchTier::Avx512)]);
    w.kv("avx2MeasuredWidth",
         row.measuredWidth[static_cast<int>(simd::DispatchTier::Avx2)]);
    w.kv("avx512MeasuredWidth",
         row.measuredWidth[static_cast<int>(simd::DispatchTier::Avx512)]);
    w.kv("avx2TableWidth",
         row.tableWidth[static_cast<int>(simd::DispatchTier::Avx2)]);
    w.kv("avx512TableWidth",
         row.tableWidth[static_cast<int>(simd::DispatchTier::Avx512)]);
    w.endObject();
  }
  w.endArray();
  w.key("obsOverhead").beginObject();
  w.kv("kernel", "scale");
  w.kv("amps", std::uint64_t{4096});
  w.kv("plainNsPerAmp", obsOverhead.plainNs);
  w.kv("instrumentedNsPerAmp", obsOverhead.instrumentedNs);
  w.kv("disabledOverheadPct", obsOverhead.overheadPct);
  w.kv("budgetPct", obsOverhead.budgetPct);
  w.kv("pass", obsOverhead.pass);
  w.endObject();
  w.endObject();
  writeBenchJson("BENCH_kernels.json", w.str());
  // The overhead budget is informational locally; CI's forced-scalar job
  // enforces it by reading obsOverhead.pass out of the JSON.
  return 0;
}

}  // namespace
}  // namespace fdd::bench

int main() { return fdd::bench::run(); }
