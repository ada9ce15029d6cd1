// Randomized DMAV-vs-array equivalence: random 1q/2q/controlled gates over
// 2-10 qubits, thread counts {1,2,4,8}, through the plain, cached, and
// plan-replay execution paths, with the ident fast path both on and off.
// The oracle is the dense reference (test::denseOperator/denseApply), which
// shares no code with the DD package or the DMAV kernels.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/prng.hpp"
#include "dd/package.hpp"
#include "flatdd/dmav.hpp"
#include "flatdd/dmav_cache.hpp"
#include "flatdd/dmav_plan.hpp"
#include "helpers.hpp"

namespace fdd::flat {
namespace {

constexpr fp kTol = 1e-12;

qc::Operation randomGate(Qubit n, Xoshiro256& rng) {
  const auto target = static_cast<Qubit>(rng.below(n));
  auto otherThan = [&](Qubit q) {
    Qubit o = q;
    while (o == q) {
      o = static_cast<Qubit>(rng.below(n));
    }
    return o;
  };
  switch (rng.below(10)) {
    case 0: return {qc::GateKind::H, target, {}, {}};
    case 1: return {qc::GateKind::X, target, {}, {}};
    case 2: return {qc::GateKind::T, target, {}, {}};
    case 3: return {qc::GateKind::RZ, target, {}, {rng.uniform(0, 2 * PI)}};
    case 4: return {qc::GateKind::RY, target, {}, {rng.uniform(0, 2 * PI)}};
    case 5:
      return {qc::GateKind::U3,
              target,
              {},
              {rng.uniform(0, PI), rng.uniform(0, 2 * PI),
               rng.uniform(0, 2 * PI)}};
    case 6:
      return n < 2 ? qc::Operation{qc::GateKind::X, target, {}, {}}
                   : qc::Operation{qc::GateKind::X, target,
                                   {otherThan(target)}, {}};
    case 7:
      return n < 2 ? qc::Operation{qc::GateKind::Z, target, {}, {}}
                   : qc::Operation{qc::GateKind::Z, target,
                                   {otherThan(target)}, {}};
    case 8:
      return n < 2 ? qc::Operation{qc::GateKind::P, target, {}, {0.9}}
                   : qc::Operation{qc::GateKind::P, target,
                                   {otherThan(target)},
                                   {rng.uniform(0, 2 * PI)}};
    default: {
      if (n < 3) {
        return {qc::GateKind::SX, target, {}, {}};
      }
      const Qubit c1 = otherThan(target);
      Qubit c2 = c1;
      while (c2 == c1 || c2 == target) {
        c2 = static_cast<Qubit>(rng.below(n));
      }
      // Operation::controls must be sorted.
      return {qc::GateKind::X, target,
              {std::min(c1, c2), std::max(c1, c2)}, {}};  // Toffoli
    }
  }
}

class DmavRandom
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>> {};

TEST_P(DmavRandom, AllPathsMatchDenseReference) {
  const auto [threads, identFast] = GetParam();
  setIdentFastPath(identFast);
  Xoshiro256 rng{0xd31a * (threads + 1) + (identFast ? 1 : 0)};
  for (Qubit n = 2; n <= 10; n += 2) {
    dd::Package p{n};
    DmavWorkspace ws;
    for (int trial = 0; trial < 3; ++trial) {
      const qc::Operation op = randomGate(n, rng);
      const dd::mEdge m = p.makeGateDD(op);
      const auto v = test::randomState(
          n, 0x5eed + static_cast<std::uint64_t>(n) * 17 +
                 static_cast<std::uint64_t>(trial));
      const auto ref = test::denseApply(test::denseOperator(op, n), v);
      AlignedVector<Complex> in(v.begin(), v.end());
      AlignedVector<Complex> out(v.size());

      // Path 1: plain row-space DMAV (compile + replay one-shot).
      dmav(m, n, in, out, threads);
      EXPECT_STATE_NEAR(out, ref, kTol) << op.toString() << " plain n=" << n;

      // Path 2: pre-plan recursive row-space path.
      dmavRecursive(m, n, in, out, threads);
      EXPECT_STATE_NEAR(out, ref, kTol)
          << op.toString() << " recursive n=" << n;

      // Path 3: cached column-space DMAV through a plan.
      dmavCached(m, n, in, out, threads, ws);
      EXPECT_STATE_NEAR(out, ref, kTol) << op.toString() << " cached n=" << n;

      // Path 4: pre-plan recursive cached path.
      dmavCachedRecursive(m, n, in, out, threads, ws);
      EXPECT_STATE_NEAR(out, ref, kTol)
          << op.toString() << " cachedRecursive n=" << n;

      // Path 5: explicit compile once, replay twice (plan reuse).
      const DmavPlan plan =
          compileDmavPlan(m, n, threads, PlanMode::Row);
      replayPlan(plan, in, out);
      EXPECT_STATE_NEAR(out, ref, kTol) << op.toString() << " replay n=" << n;
      AlignedVector<Complex> out2(v.size());
      replayPlan(plan, in, out2);
      EXPECT_STATE_NEAR(out2, ref, kTol)
          << op.toString() << " replay2 n=" << n;
    }
  }
  setIdentFastPath(true);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsTimesIdentPath, DmavRandom,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(true, false)));

TEST(DmavRandomChain, LongRandomCircuitAllPathsAgree) {
  // Chain 40 random gates at 8 qubits, advancing four states in lockstep
  // through the four execution paths; they must stay bit-close throughout.
  const Qubit n = 8;
  dd::Package p{n};
  Xoshiro256 rng{777};
  DmavWorkspace ws1;
  DmavWorkspace ws2;
  const Index dim = Index{1} << n;
  AlignedVector<Complex> plain(dim, Complex{});
  plain[0] = Complex{1.0};
  AlignedVector<Complex> rec = plain;
  AlignedVector<Complex> cached = plain;
  AlignedVector<Complex> planned = plain;
  AlignedVector<Complex> scratch(dim);
  auto step = [&](AlignedVector<Complex>& state, auto&& apply) {
    apply(state, scratch);
    std::swap(state, scratch);
  };
  for (int g = 0; g < 40; ++g) {
    const qc::Operation op = randomGate(n, rng);
    const dd::mEdge m = p.makeGateDD(op);
    const unsigned t = 1u << rng.below(4);  // 1, 2, 4 or 8 threads
    step(plain, [&](auto& v, auto& w) { dmav(m, n, v, w, t); });
    step(rec, [&](auto& v, auto& w) { dmavRecursive(m, n, v, w, t); });
    step(cached, [&](auto& v, auto& w) { dmavCached(m, n, v, w, t, ws1); });
    step(planned, [&](auto& v, auto& w) {
      const DmavPlan plan = compileDmavPlan(m, n, t, PlanMode::Cached);
      replayPlanCached(plan, v, w, ws2);
    });
  }
  EXPECT_STATE_NEAR(plain, rec, kTol);
  EXPECT_STATE_NEAR(plain, cached, kTol);
  EXPECT_STATE_NEAR(plain, planned, kTol);
}

}  // namespace
}  // namespace fdd::flat
