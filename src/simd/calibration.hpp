#pragma once
// Measured per-tier kernel throughput for the cost model. Eq. 6 divides the
// sweep term by `d`, the SIMD width — but the *nominal* lane count (8/4/1)
// overstates what memory-bound kernels actually gain: at state-vector sizes
// the AVX2 MAC runs ~2x scalar, not 4x, because DRAM bandwidth, not issue
// width, is the ceiling. This table holds the measured effective widths so
// fusion decisions (Alg. 3 via dmavCost) and the cached-vs-uncached switch
// see the throughput that will really execute.
//
// The numbers are a static snapshot refreshed from bench/kernels: the bench
// emits a "calibration" section in BENCH_kernels.json with scalarNs/tierNs
// ratios at 2^20 amps per kernel class; when kernels or hardware class
// change materially, re-run the bench and update kCalibration below. Values
// are deliberately coarse (one digit) — the cost model compares costs that
// differ by integer factors, so ±20% calibration error never flips a
// decision that mattered.

#include "common/types.hpp"
#include "simd/kernels.hpp"

namespace fdd::simd {

/// Kernel families with distinct effective-width behavior.
enum class KernelClass : std::uint8_t {
  Mac,        // scale / scaleAccumulate / accumulate — Eq. 6's sweep term
  Butterfly,  // strided / adjacent 2x2
  Norm,       // reductions
};

/// Measured effective SIMD width (the `d` of Eq. 6) of `cls` kernels on
/// `tier`, in scalar-equivalents at memory-bound sizes (2^20 amps).
[[nodiscard]] fp calibratedLanes(KernelClass cls, DispatchTier tier) noexcept;

/// calibratedLanes for the tier kernels currently dispatch to.
[[nodiscard]] fp calibratedLanes(KernelClass cls) noexcept;

/// Array-phase speedup of the active tier relative to the AVX2 reference
/// tier on MAC-class kernels, sqrt-damped (same conservatism as
/// ddPhaseSpeedup): the EWMA conversion trigger scales its epsilon by
/// 1/this, so a faster array phase moves the DD-to-array switch earlier and
/// a scalar-only host moves it later. Exactly 1.0 on the AVX2 tier, so
/// calibrated hosts match the pre-calibration trigger behavior bit-for-bit.
[[nodiscard]] fp arrayPhaseSpeedup() noexcept;

}  // namespace fdd::simd
