#pragma once
// Internal kernel dispatch table. Each dispatch tier (scalar, AVX2+FMA,
// AVX-512) provides one immutable table of function pointers; the public API
// in kernels.hpp selects a table once at startup (cpuid +
// FLATDD_FORCE_SCALAR / FLATDD_FORCE_TIER) and forwards every call through
// it. Benchmarks and tests may switch the active table at runtime via
// setDispatchTier() to time every tier in one process.
//
// Strided kernels operate on a comb of `count` sub-spans of `len` complex
// amplitudes whose bases advance by `stride` elements: sub-span k covers
// [k*stride, k*stride + len). Callers guarantee len <= stride and that the
// combs of out/in never overlap except out == in (in-place).

#include <cstddef>

#include "common/types.hpp"

namespace fdd::simd::detail {

struct KernelTable {
  unsigned lanes;

  /// out[i] = s * in[i]
  void (*scale)(Complex* out, const Complex* in, Complex s,
                std::size_t n) noexcept;
  /// out[i] += s * in[i]
  void (*scaleAccumulate)(Complex* out, const Complex* in, Complex s,
                          std::size_t n) noexcept;
  /// out[i] += in[i]
  void (*accumulate)(Complex* out, const Complex* in, std::size_t n) noexcept;
  /// (a[i], b[i]) = (u[0]*a[i] + u[1]*b[i], u[2]*a[i] + u[3]*b[i])
  void (*butterfly)(Complex* a, Complex* b, const Complex* u,
                    std::size_t n) noexcept;
  /// (s[2i], s[2i+1]) = U * (s[2i], s[2i+1]) for i in [0, nPairs)
  void (*butterflyAdjacent)(Complex* s, const Complex* u,
                            std::size_t nPairs) noexcept;
  /// out[k*stride + j] = s * in[k*stride + j]
  void (*scaleStrided)(Complex* out, const Complex* in, Complex s,
                       std::size_t count, std::size_t len,
                       std::size_t stride) noexcept;
  /// sum of |v[i]|^2
  fp (*normSquared)(const Complex* v, std::size_t n) noexcept;
};

[[nodiscard]] const KernelTable& scalarTable() noexcept;

/// The AVX2+FMA table; aliases scalarTable() when the AVX2 translation unit
/// was compiled without vector support.
[[nodiscard]] const KernelTable& avx2Table() noexcept;

/// True when avx2Table() really holds vector kernels.
[[nodiscard]] bool avx2Compiled() noexcept;

/// The AVX-512 table (8 complex lanes, masked-tail loads/stores); aliases
/// the best lower tier when the AVX-512 translation unit was compiled
/// without vector support.
[[nodiscard]] const KernelTable& avx512Table() noexcept;

/// True when avx512Table() really holds 512-bit kernels.
[[nodiscard]] bool avx512Compiled() noexcept;

}  // namespace fdd::simd::detail
