#include "simd/calibration.hpp"

#include <cmath>

namespace fdd::simd {

namespace {

/// kCalibration[tier][class]: measured scalarNs / tierNs at 2^20 amps,
/// refreshed from the "calibration" section of BENCH_kernels.json
/// (bench/kernels). Scalar is 1.0 by construction.
constexpr int kNumClasses = 3;
constexpr fp kCalibration[3][kNumClasses] = {
    // Mac, Butterfly, Norm
    {1.0, 1.0, 1.0},  // Scalar
    {2.2, 3.1, 1.3},  // Avx2
    {2.0, 2.9, 1.5},  // Avx512
};

}  // namespace

fp calibratedLanes(KernelClass cls, DispatchTier tier) noexcept {
  return kCalibration[static_cast<int>(tier)][static_cast<int>(cls)];
}

fp calibratedLanes(KernelClass cls) noexcept {
  return calibratedLanes(cls, activeTier());
}

fp arrayPhaseSpeedup() noexcept {
  const fp ref = calibratedLanes(KernelClass::Mac, DispatchTier::Avx2);
  const fp act = calibratedLanes(KernelClass::Mac, activeTier());
  return std::sqrt(act / ref);
}

}  // namespace fdd::simd
