// Randomized equivalence of every dispatched kernel against plain scalar
// reference loops — across sizes 1..257 (vector body + tail), every
// vector-relative buffer alignment, and comb strides up to 2^8 — run under
// every dispatch tier available on the host. Also covers the
// ArraySimulator's control-run decomposition: BitTricks (span kernels) vs
// the faithful MultiIndex baseline on random controlled circuits.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "common/aligned.hpp"
#include "common/prng.hpp"
#include "qc/gate.hpp"
#include "sim/array_simulator.hpp"
#include "simd/kernels.hpp"

namespace fdd::simd {
namespace {

constexpr double kTol = 1e-12;

std::vector<DispatchTier> availableTiers() {
  std::vector<DispatchTier> tiers{DispatchTier::Scalar};
  if (tierAvailable(DispatchTier::Avx2)) {
    tiers.push_back(DispatchTier::Avx2);
  }
  if (tierAvailable(DispatchTier::Avx512)) {
    tiers.push_back(DispatchTier::Avx512);
  }
  return tiers;
}

/// Restores the startup dispatch tier when a test body returns.
class TierGuard {
 public:
  TierGuard() : saved_{activeTier()} {}
  ~TierGuard() { setDispatchTier(saved_); }

 private:
  DispatchTier saved_;
};

AlignedVector<Complex> randomBuf(std::size_t n, Xoshiro256& rng) {
  AlignedVector<Complex> v(n);
  for (auto& z : v) {
    z = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  return v;
}

Complex randomCoeff(Xoshiro256& rng) {
  return Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
}

// Alignment offsets in complex elements (16 bytes each): offset 0 is
// 64-byte aligned, the rest cover every vector-relative misalignment.
constexpr std::array<std::size_t, 4> kOffsets{0, 1, 2, 3};

void expectNear(const Complex& got, const Complex& want, const char* what,
                std::size_t i) {
  EXPECT_NEAR(std::abs(got - want), 0.0, kTol) << what << " i=" << i;
}

TEST(SimdDispatch, ScaleMatchesReference) {
  TierGuard guard;
  Xoshiro256 rng{11};
  for (const DispatchTier tier : availableTiers()) {
    ASSERT_TRUE(setDispatchTier(tier));
    for (std::size_t n = 1; n <= 257; n += (n < 16 ? 1 : 13)) {
      for (const std::size_t off : kOffsets) {
        const auto in = randomBuf(off + n, rng);
        auto out = randomBuf(off + n, rng);
        const Complex s = randomCoeff(rng);
        scale(out.data() + off, in.data() + off, s, n);
        for (std::size_t i = 0; i < n; ++i) {
          expectNear(out[off + i], s * in[off + i], toString(tier), i);
        }
        // In-place variant.
        auto v = in;
        scale(v.data() + off, v.data() + off, s, n);
        for (std::size_t i = 0; i < n; ++i) {
          expectNear(v[off + i], s * in[off + i], "in-place", i);
        }
      }
    }
  }
}

TEST(SimdDispatch, ScaleAccumulateMatchesReference) {
  TierGuard guard;
  Xoshiro256 rng{12};
  for (const DispatchTier tier : availableTiers()) {
    ASSERT_TRUE(setDispatchTier(tier));
    for (std::size_t n = 1; n <= 257; n += (n < 16 ? 1 : 13)) {
      for (const std::size_t off : kOffsets) {
        const auto in = randomBuf(off + n, rng);
        const auto base = randomBuf(off + n, rng);
        auto out = base;
        const Complex s = randomCoeff(rng);
        scaleAccumulate(out.data() + off, in.data() + off, s, n);
        for (std::size_t i = 0; i < n; ++i) {
          expectNear(out[off + i], base[off + i] + s * in[off + i],
                     toString(tier), i);
        }
      }
    }
  }
}

TEST(SimdDispatch, AccumulateMatchesReference) {
  TierGuard guard;
  Xoshiro256 rng{13};
  for (const DispatchTier tier : availableTiers()) {
    ASSERT_TRUE(setDispatchTier(tier));
    for (std::size_t n = 1; n <= 257; n += (n < 16 ? 1 : 13)) {
      for (const std::size_t off : kOffsets) {
        const auto in = randomBuf(off + n, rng);
        const auto base = randomBuf(off + n, rng);
        auto out = base;
        accumulate(out.data() + off, in.data() + off, n);
        for (std::size_t i = 0; i < n; ++i) {
          expectNear(out[off + i], base[off + i] + in[off + i],
                     toString(tier), i);
        }
      }
    }
  }
}

TEST(SimdDispatch, ButterflyMatchesReference) {
  TierGuard guard;
  Xoshiro256 rng{15};
  for (const DispatchTier tier : availableTiers()) {
    ASSERT_TRUE(setDispatchTier(tier));
    for (std::size_t n = 1; n <= 257; n += (n < 16 ? 1 : 13)) {
      for (const std::size_t off : kOffsets) {
        const std::array<Complex, 4> u{randomCoeff(rng), randomCoeff(rng),
                                       randomCoeff(rng), randomCoeff(rng)};
        const auto a0 = randomBuf(off + n, rng);
        const auto b0 = randomBuf(off + n, rng);
        auto a = a0;
        auto b = b0;
        butterfly(a.data() + off, b.data() + off, u.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          expectNear(a[off + i],
                     u[0] * a0[off + i] + u[1] * b0[off + i], "a", i);
          expectNear(b[off + i],
                     u[2] * a0[off + i] + u[3] * b0[off + i], "b", i);
        }
      }
    }
  }
}

TEST(SimdDispatch, ButterflyAdjacentMatchesReference) {
  TierGuard guard;
  Xoshiro256 rng{16};
  for (const DispatchTier tier : availableTiers()) {
    ASSERT_TRUE(setDispatchTier(tier));
    for (std::size_t pairs = 1; pairs <= 129;
         pairs += (pairs < 16 ? 1 : 13)) {
      for (const std::size_t off : kOffsets) {
        const std::array<Complex, 4> u{randomCoeff(rng), randomCoeff(rng),
                                       randomCoeff(rng), randomCoeff(rng)};
        const auto s0 = randomBuf(off + 2 * pairs, rng);
        auto s = s0;
        butterflyAdjacent(s.data() + off, u.data(), pairs);
        for (std::size_t i = 0; i < pairs; ++i) {
          const Complex x = s0[off + 2 * i];
          const Complex y = s0[off + 2 * i + 1];
          expectNear(s[off + 2 * i], u[0] * x + u[1] * y, "even", i);
          expectNear(s[off + 2 * i + 1], u[2] * x + u[3] * y, "odd", i);
        }
      }
    }
  }
}

// Comb shapes: every stride 1..2^8 that fits the len, sparse count grid.
struct CombCase {
  std::size_t count, len, stride;
};

std::vector<CombCase> combCases() {
  std::vector<CombCase> cases;
  for (const std::size_t len : {1u, 2u, 3u, 5u, 8u}) {
    for (std::size_t stride = 1; stride <= 256;
         stride += (stride < 9 ? 1 : stride)) {
      if (stride < len) {
        continue;
      }
      for (const std::size_t count : {1u, 2u, 3u, 5u, 17u}) {
        cases.push_back(CombCase{count, len, stride});
      }
    }
  }
  return cases;
}

TEST(SimdDispatch, ScaleStridedMatchesReference) {
  TierGuard guard;
  Xoshiro256 rng{17};
  for (const DispatchTier tier : availableTiers()) {
    ASSERT_TRUE(setDispatchTier(tier));
    for (const CombCase& c : combCases()) {
      for (const std::size_t off : kOffsets) {
        const std::size_t span = (c.count - 1) * c.stride + c.len;
        const auto in = randomBuf(off + span, rng);
        const auto base = randomBuf(off + span, rng);
        auto out = base;
        const Complex s = randomCoeff(rng);
        scaleStrided(out.data() + off, in.data() + off, s, c.count, c.len,
                     c.stride);
        for (std::size_t i = 0; i < span; ++i) {
          const std::size_t k = c.stride == 0 ? 0 : i / c.stride;
          const bool touched = k < c.count && i - k * c.stride < c.len;
          const Complex want = touched ? s * in[off + i] : base[off + i];
          expectNear(out[off + i], want, "strided", i);
        }
        // In-place (the ArraySimulator diagonal path).
        auto v = in;
        scaleStrided(v.data() + off, v.data() + off, s, c.count, c.len,
                     c.stride);
        for (std::size_t k = 0; k < c.count; ++k) {
          for (std::size_t j = 0; j < c.len; ++j) {
            const std::size_t i = k * c.stride + j;
            expectNear(v[off + i], s * in[off + i], "strided-inplace", i);
          }
        }
      }
    }
  }
}

TEST(SimdDispatch, NormSquaredMatchesReference) {
  TierGuard guard;
  Xoshiro256 rng{20};
  for (const DispatchTier tier : availableTiers()) {
    ASSERT_TRUE(setDispatchTier(tier));
    for (std::size_t n = 1; n <= 257; n += (n < 16 ? 1 : 13)) {
      for (const std::size_t off : kOffsets) {
        const auto v = randomBuf(off + n, rng);
        fp want = 0;
        for (std::size_t i = 0; i < n; ++i) {
          want += norm2(v[off + i]);
        }
        EXPECT_NEAR(normSquared(v.data() + off, n), want, kTol * (1 + want));
      }
    }
  }
}

TEST(SimdDispatch, TierRoundTrip) {
  TierGuard guard;
  for (const DispatchTier tier : availableTiers()) {
    EXPECT_TRUE(setDispatchTier(tier));
    EXPECT_EQ(activeTier(), tier);
    EXPECT_EQ(lanes(), lanesOf(tier));
    EXPECT_EQ(avx2Enabled(), tier == DispatchTier::Avx2);
    EXPECT_EQ(vectorEnabled(), tier != DispatchTier::Scalar);
  }
  EXPECT_TRUE(tierAvailable(DispatchTier::Scalar));
  EXPECT_STREQ(toString(DispatchTier::Scalar), "scalar");
  EXPECT_STREQ(toString(DispatchTier::Avx2), "avx2");
  EXPECT_STREQ(toString(DispatchTier::Avx512), "avx512");
  EXPECT_EQ(lanesOf(DispatchTier::Scalar), 1u);
  EXPECT_EQ(lanesOf(DispatchTier::Avx2), 4u);
  EXPECT_EQ(lanesOf(DispatchTier::Avx512), 8u);
}

TEST(SimdDispatch, ParseTierNameCoversVocabulary) {
  EXPECT_EQ(parseTierName("scalar"), DispatchTier::Scalar);
  EXPECT_EQ(parseTierName("avx2"), DispatchTier::Avx2);
  EXPECT_EQ(parseTierName("avx512"), DispatchTier::Avx512);
  EXPECT_EQ(parseTierName("AVX2"), std::nullopt);  // case-sensitive
  EXPECT_EQ(parseTierName("sse"), std::nullopt);
  EXPECT_EQ(parseTierName(""), std::nullopt);
  EXPECT_EQ(parseTierName(nullptr), std::nullopt);
}

// ---------------------------------------------------------------------------
// ArraySimulator control-run decomposition vs the faithful MultiIndex path
// ---------------------------------------------------------------------------

qc::Operation randomOp(Qubit n, Xoshiro256& rng) {
  static const std::vector<qc::GateKind> kinds = {
      qc::GateKind::H,  qc::GateKind::X, qc::GateKind::Z,
      qc::GateKind::T,  qc::GateKind::RZ, qc::GateKind::P,
      qc::GateKind::RY, qc::GateKind::RX,
  };
  qc::Operation op;
  op.kind = kinds[static_cast<std::size_t>(rng.below(kinds.size()))];
  op.target = static_cast<Qubit>(rng.below(static_cast<std::uint64_t>(n)));
  if (op.kind == qc::GateKind::RZ || op.kind == qc::GateKind::P ||
      op.kind == qc::GateKind::RY || op.kind == qc::GateKind::RX) {
    op.params.push_back(rng.uniform(-3, 3));
  }
  for (Qubit q = 0; q < n; ++q) {
    if (q != op.target && rng.below(4) == 0) {
      op.controls.push_back(q);
    }
  }
  return op;
}

TEST(SimdDispatch, ArraySimulatorRunDecompositionMatchesMultiIndex) {
  TierGuard guard;
  for (const DispatchTier tier : availableTiers()) {
    ASSERT_TRUE(setDispatchTier(tier));
    Xoshiro256 rng{21};
    for (const Qubit n : {1, 2, 3, 6, 9}) {
      for (const unsigned threads : {1u, 4u}) {
        sim::ArraySimOptions fast;
        fast.threads = threads;
        fast.parallelThresholdDim = 2;  // exercise the parallel chunking
        fast.indexing = sim::ArrayIndexing::BitTricks;
        sim::ArraySimOptions faithful = fast;
        faithful.indexing = sim::ArrayIndexing::MultiIndex;

        sim::ArraySimulator a{n, fast};
        sim::ArraySimulator b{n, faithful};
        const auto init = randomBuf(Index{1} << n, rng);
        a.setState(init);
        b.setState(init);
        for (int g = 0; g < 40; ++g) {
          const qc::Operation op = randomOp(n, rng);
          a.applyOperation(op);
          b.applyOperation(op);
        }
        for (Index i = 0; i < (Index{1} << n); ++i) {
          EXPECT_NEAR(std::abs(a.amplitude(i) - b.amplitude(i)), 0.0, kTol)
              << "tier=" << toString(tier) << " n=" << int{n}
              << " t=" << threads << " i=" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fdd::simd
