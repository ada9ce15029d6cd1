#pragma once
// DMAV computational cost model (Section 3.2.3). The unit of cost is one
// MAC operation; the model decides (a) whether a given gate benefits from
// the DMAV cache (Eq. 5 vs Eq. 6) and (b) whether fusing two gates lowers
// total cost (Algorithm 3 uses Eq. 5).

#include <cstdint>

#include "common/types.hpp"
#include "dd/edge.hpp"

namespace fdd::flat {

/// Total MAC operations of a DMAV with this gate matrix: the paper's
/// DFS-with-lookup-table count of Fig. 8 (terminal edge = 1 MAC; node =
/// sum over nonzero children; identical nodes share one table entry).
[[nodiscard]] std::uint64_t macCount(const dd::mEdge& m);

/// Cost of DMAV without caching: C1 = K1 / t (Eq. 5).
[[nodiscard]] fp costNoCache(const dd::mEdge& m, unsigned threads);

/// Cost of DMAV with caching (Eq. 6):
///   C2 = K2/t + 2^n/(d*t) * (H/t + b)
/// where K2 counts MACs with repeated border nodes deduplicated, H is the
/// number of cache hits under the column-space assignment, b the number of
/// partial-output buffers, and d the SIMD width. Callers pass either
/// simd::lanes() (the nominal width resolved by runtime dispatch: cpuid +
/// FLATDD_FORCE_SCALAR/FLATDD_FORCE_TIER) or the measured effective width
/// simd::calibratedLanes() — fractional widths are why `d` is fp. Requires
/// simulating the assignment, so it is costlier to evaluate than Eq. 5.
[[nodiscard]] fp costWithCache(const dd::mEdge& m, Qubit nQubits,
                               unsigned threads, fp simdWidth);

/// min(C1, C2) — the cost FlatDD charges a DMAV (Section 3.2.3).
[[nodiscard]] fp dmavCost(const dd::mEdge& m, Qubit nQubits, unsigned threads,
                          fp simdWidth);

/// True when the cost model picks the cached variant (C2 < C1).
[[nodiscard]] bool cachingBeneficial(const dd::mEdge& m, Qubit nQubits,
                                     unsigned threads, fp simdWidth);

/// Factor the EWMA monitor multiplies its epsilon by: sqrt(min(threads,
/// coreCap)), or 1 at one thread. The DD phase is sequential at every
/// thread count, so the factor models no measured speedup. It stays because
/// the trigger depends on it: without it every thread count returns to the
/// paper's epsilon = 2, and that trigger's false conversions come back.
/// QPE-24 (seed 7) at 4 threads then converts and takes about 64 s, against
/// 17 ms in the DD phase (4-vCPU Xeon, AVX-512 tier). Remove it together
/// with a cost-based conversion guard.
///
/// coreCap 0 means "detect": FLATDD_DD_ASSUME_CORES if set (containers and
/// benches can pin the model's view of the machine), else
/// hardware_concurrency().
[[nodiscard]] fp ddPhaseSpeedup(unsigned threads, unsigned coreCap = 0);

}  // namespace fdd::flat
