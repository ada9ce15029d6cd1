// AVX-512 tier. This translation unit is the only one compiled with
// -mavx512f -mavx512dq (per-source property in src/CMakeLists.txt, signalled
// by FLATDD_AVX512_TU); the binary still starts on any x86-64 and the
// dispatcher only selects this table when cpuid reports avx512f+avx512dq.
//
// A 512-bit register holds four interleaved complex doubles
// [r0 i0 r1 i1 r2 i2 r3 i3]. The complex scalar product is the same
// fmaddsub pattern as the AVX2 tier, twice as wide.
//
// Tail policy: every kernel finishes with ONE masked iteration instead of a
// scalar epilogue. __mmask8 carries one bit per double, so a tail of r
// complexes is the mask (1 << 2r) - 1; masked loads of the dead lanes do
// not fault and masked stores never touch bytes outside the span, so tails
// are exact even when the span butts against another thread's rows. The
// same masks replace the AVX2 tier's blend-store workaround for the
// len == 1 stride == 2 comb: mask 0b00110011 writes complexes {0, 2} of a
// register and nothing else, so no comb needs a scalar fallback and stores
// stay strictly inside the comb extent.

#include "simd/kernel_table.hpp"

#if defined(FLATDD_AVX512_TU) && defined(__AVX512F__) && defined(__AVX512DQ__)
#define FLATDD_HAVE_AVX512_KERNELS 1
#include <immintrin.h>
#endif

namespace fdd::simd::detail {

#if defined(FLATDD_HAVE_AVX512_KERNELS)

namespace {

inline __m512d complexScale(__m512d v, __m512d sr, __m512d si) noexcept {
  const __m512d swapped = _mm512_permute_pd(v, 0x55);
  return _mm512_fmaddsub_pd(v, sr, _mm512_mul_pd(swapped, si));
}

/// Mask covering the first `remComplex` (< 4) complexes of a register.
inline __mmask8 tailMask(std::size_t remComplex) noexcept {
  return static_cast<__mmask8>((1u << (2 * remComplex)) - 1u);
}

void scaleK(Complex* out, const Complex* in, Complex s,
            std::size_t n) noexcept {
  const __m512d sr = _mm512_set1_pd(s.real());
  const __m512d si = _mm512_set1_pd(s.imag());
  auto* o = reinterpret_cast<double*>(out);
  const auto* p = reinterpret_cast<const double*>(in);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m512d v = _mm512_loadu_pd(p + 2 * i);
    _mm512_storeu_pd(o + 2 * i, complexScale(v, sr, si));
  }
  if (i < n) {
    const __mmask8 m = tailMask(n - i);
    const __m512d v = _mm512_maskz_loadu_pd(m, p + 2 * i);
    _mm512_mask_storeu_pd(o + 2 * i, m, complexScale(v, sr, si));
  }
}

void scaleAccumulateK(Complex* out, const Complex* in, Complex s,
                      std::size_t n) noexcept {
  const __m512d sr = _mm512_set1_pd(s.real());
  const __m512d si = _mm512_set1_pd(s.imag());
  auto* o = reinterpret_cast<double*>(out);
  const auto* p = reinterpret_cast<const double*>(in);
  std::size_t i = 0;
  // Unrolled x2 with prefetch 512B ahead (same rationale as the AVX2 tier:
  // the accumulate target is cache-hot, the input streams).
  for (; i + 8 <= n; i += 8) {
    _mm_prefetch(reinterpret_cast<const char*>(p + 2 * i) + 512, _MM_HINT_T0);
    const __m512d v0 = _mm512_loadu_pd(p + 2 * i);
    const __m512d v1 = _mm512_loadu_pd(p + 2 * i + 8);
    const __m512d a0 = _mm512_loadu_pd(o + 2 * i);
    const __m512d a1 = _mm512_loadu_pd(o + 2 * i + 8);
    _mm512_storeu_pd(o + 2 * i, _mm512_add_pd(a0, complexScale(v0, sr, si)));
    _mm512_storeu_pd(o + 2 * i + 8,
                     _mm512_add_pd(a1, complexScale(v1, sr, si)));
  }
  for (; i + 4 <= n; i += 4) {
    const __m512d v = _mm512_loadu_pd(p + 2 * i);
    const __m512d a = _mm512_loadu_pd(o + 2 * i);
    _mm512_storeu_pd(o + 2 * i, _mm512_add_pd(a, complexScale(v, sr, si)));
  }
  if (i < n) {
    const __mmask8 m = tailMask(n - i);
    const __m512d v = _mm512_maskz_loadu_pd(m, p + 2 * i);
    const __m512d a = _mm512_maskz_loadu_pd(m, o + 2 * i);
    _mm512_mask_storeu_pd(o + 2 * i, m,
                          _mm512_add_pd(a, complexScale(v, sr, si)));
  }
}

void accumulateK(Complex* out, const Complex* in, std::size_t n) noexcept {
  auto* o = reinterpret_cast<double*>(out);
  const auto* p = reinterpret_cast<const double*>(in);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m512d a = _mm512_loadu_pd(o + 2 * i);
    const __m512d b = _mm512_loadu_pd(p + 2 * i);
    _mm512_storeu_pd(o + 2 * i, _mm512_add_pd(a, b));
  }
  if (i < n) {
    const __mmask8 m = tailMask(n - i);
    const __m512d a = _mm512_maskz_loadu_pd(m, o + 2 * i);
    const __m512d b = _mm512_maskz_loadu_pd(m, p + 2 * i);
    _mm512_mask_storeu_pd(o + 2 * i, m, _mm512_add_pd(a, b));
  }
}

void butterflyK(Complex* a, Complex* b, const Complex* u,
                std::size_t n) noexcept {
  const __m512d u0r = _mm512_set1_pd(u[0].real());
  const __m512d u0i = _mm512_set1_pd(u[0].imag());
  const __m512d u1r = _mm512_set1_pd(u[1].real());
  const __m512d u1i = _mm512_set1_pd(u[1].imag());
  const __m512d u2r = _mm512_set1_pd(u[2].real());
  const __m512d u2i = _mm512_set1_pd(u[2].imag());
  const __m512d u3r = _mm512_set1_pd(u[3].real());
  const __m512d u3i = _mm512_set1_pd(u[3].imag());
  auto* pa = reinterpret_cast<double*>(a);
  auto* pb = reinterpret_cast<double*>(b);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m512d va = _mm512_loadu_pd(pa + 2 * i);
    const __m512d vb = _mm512_loadu_pd(pb + 2 * i);
    const __m512d na =
        _mm512_add_pd(complexScale(va, u0r, u0i), complexScale(vb, u1r, u1i));
    const __m512d nb =
        _mm512_add_pd(complexScale(va, u2r, u2i), complexScale(vb, u3r, u3i));
    _mm512_storeu_pd(pa + 2 * i, na);
    _mm512_storeu_pd(pb + 2 * i, nb);
  }
  if (i < n) {
    const __mmask8 m = tailMask(n - i);
    const __m512d va = _mm512_maskz_loadu_pd(m, pa + 2 * i);
    const __m512d vb = _mm512_maskz_loadu_pd(m, pb + 2 * i);
    const __m512d na =
        _mm512_add_pd(complexScale(va, u0r, u0i), complexScale(vb, u1r, u1i));
    const __m512d nb =
        _mm512_add_pd(complexScale(va, u2r, u2i), complexScale(vb, u3r, u3i));
    _mm512_mask_storeu_pd(pa + 2 * i, m, na);
    _mm512_mask_storeu_pd(pb + 2 * i, m, nb);
  }
}

void butterflyAdjacentK(Complex* s, const Complex* u,
                        std::size_t nPairs) noexcept {
  const __m512d u0r = _mm512_set1_pd(u[0].real());
  const __m512d u0i = _mm512_set1_pd(u[0].imag());
  const __m512d u1r = _mm512_set1_pd(u[1].real());
  const __m512d u1i = _mm512_set1_pd(u[1].imag());
  const __m512d u2r = _mm512_set1_pd(u[2].real());
  const __m512d u2i = _mm512_set1_pd(u[2].imag());
  const __m512d u3r = _mm512_set1_pd(u[3].real());
  const __m512d u3i = _mm512_set1_pd(u[3].imag());
  // Four adjacent pairs per iteration: two registers hold
  // [a0 b0 a1 b1] / [a2 b2 a3 b3]; permutex2var deinterleaves into
  // [a0..a3] / [b0..b3], the 2x2 is applied, and the inverse permutes
  // reinterleave. Indices are double positions; bit 3 selects the second
  // source register.
  const __m512i idxA = _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13);
  const __m512i idxB = _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15);
  const __m512i idxLo = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
  const __m512i idxHi = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
  auto* p = reinterpret_cast<double*>(s);
  std::size_t i = 0;
  for (; i + 4 <= nPairs; i += 4) {
    const __m512d v0 = _mm512_loadu_pd(p + 4 * i);
    const __m512d v1 = _mm512_loadu_pd(p + 4 * i + 8);
    const __m512d va = _mm512_permutex2var_pd(v0, idxA, v1);
    const __m512d vb = _mm512_permutex2var_pd(v0, idxB, v1);
    const __m512d na =
        _mm512_add_pd(complexScale(va, u0r, u0i), complexScale(vb, u1r, u1i));
    const __m512d nb =
        _mm512_add_pd(complexScale(va, u2r, u2i), complexScale(vb, u3r, u3i));
    _mm512_storeu_pd(p + 4 * i, _mm512_permutex2var_pd(na, idxLo, nb));
    _mm512_storeu_pd(p + 4 * i + 8, _mm512_permutex2var_pd(na, idxHi, nb));
  }
  if (i < nPairs) {
    // 1-3 remaining pairs = 4, 8 or 12 live doubles across the two loads.
    const std::size_t d = 4 * (nPairs - i);
    const __mmask8 m0 =
        static_cast<__mmask8>(d >= 8 ? 0xFFu : (1u << d) - 1u);
    const __mmask8 m1 =
        static_cast<__mmask8>(d > 8 ? (1u << (d - 8)) - 1u : 0u);
    const __m512d v0 = _mm512_maskz_loadu_pd(m0, p + 4 * i);
    const __m512d v1 = _mm512_maskz_loadu_pd(m1, p + 4 * i + 8);
    const __m512d va = _mm512_permutex2var_pd(v0, idxA, v1);
    const __m512d vb = _mm512_permutex2var_pd(v0, idxB, v1);
    const __m512d na =
        _mm512_add_pd(complexScale(va, u0r, u0i), complexScale(vb, u1r, u1i));
    const __m512d nb =
        _mm512_add_pd(complexScale(va, u2r, u2i), complexScale(vb, u3r, u3i));
    _mm512_mask_storeu_pd(p + 4 * i, m0,
                          _mm512_permutex2var_pd(na, idxLo, nb));
    _mm512_mask_storeu_pd(p + 4 * i + 8, m1,
                          _mm512_permutex2var_pd(na, idxHi, nb));
  }
}

/// len == 1 stride == 2 comb: two combs per register via mask 0b00110011
/// (complexes {0, 2}). Unlike the AVX2 blend-store path, the masked store
/// writes only the comb's own bytes, so every comb — including the last —
/// runs vectorized.
void scaleStride2Lane0(Complex* out, const Complex* in, Complex s,
                       std::size_t count) noexcept {
  const __m512d sr = _mm512_set1_pd(s.real());
  const __m512d si = _mm512_set1_pd(s.imag());
  auto* o = reinterpret_cast<double*>(out);
  const auto* p = reinterpret_cast<const double*>(in);
  constexpr __mmask8 kPair = 0b00110011;
  std::size_t k = 0;
  for (; k + 2 <= count; k += 2) {
    const __m512d v = _mm512_maskz_loadu_pd(kPair, p + 4 * k);
    _mm512_mask_storeu_pd(o + 4 * k, kPair, complexScale(v, sr, si));
  }
  if (k < count) {
    constexpr __mmask8 kOne = 0b00000011;
    const __m512d v = _mm512_maskz_loadu_pd(kOne, p + 4 * k);
    _mm512_mask_storeu_pd(o + 4 * k, kOne, complexScale(v, sr, si));
  }
}

void scaleStridedK(Complex* out, const Complex* in, Complex s,
                   std::size_t count, std::size_t len,
                   std::size_t stride) noexcept {
  if (len == 1) {
    if (stride == 2) {
      scaleStride2Lane0(out, in, s, count);
    } else {
      // Isolated elements at other strides: the scalar TU's indexed loop
      // beats gather codegen, same as the AVX2 tier.
      scalarTable().scaleStrided(out, in, s, count, len, stride);
    }
    return;
  }
  for (std::size_t k = 0; k < count; ++k) {
    scaleK(out + k * stride, in + k * stride, s, len);
  }
}

fp normSquaredK(const Complex* v, std::size_t n) noexcept {
  const auto* p = reinterpret_cast<const double*>(v);
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m512d x = _mm512_loadu_pd(p + 2 * i);
    acc = _mm512_fmadd_pd(x, x, acc);
  }
  if (i < n) {
    const __m512d x = _mm512_maskz_loadu_pd(tailMask(n - i), p + 2 * i);
    acc = _mm512_fmadd_pd(x, x, acc);
  }
  return _mm512_reduce_add_pd(acc);
}

}  // namespace

bool avx512Compiled() noexcept { return true; }

const KernelTable& avx512Table() noexcept {
  static const KernelTable table{
      /*lanes=*/8,         &scaleK,        &scaleAccumulateK,
      &accumulateK,        &butterflyK,    &butterflyAdjacentK,
      &scaleStridedK,      &normSquaredK,
  };
  return table;
}

#else  // no AVX-512 in this build: alias the best lower tier

bool avx512Compiled() noexcept { return false; }

const KernelTable& avx512Table() noexcept { return avx2Table(); }

#endif

}  // namespace fdd::simd::detail
