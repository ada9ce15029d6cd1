#include "flatdd/fusion.hpp"

#include <stdexcept>
#include <utility>

#include "flatdd/cost_model.hpp"
#include "obs/metrics.hpp"
#include "simd/calibration.hpp"

namespace fdd::flat {

namespace {

/// Section 3.2.3 cost of one DMAV: min(C1, C2). Algorithm 3's cost() uses
/// the full model (the paper's Fig. 9/10 walkthroughs use Eq. 5 "for
/// simplicity", but the algorithm itself charges min{C1, C2}), with the
/// measured effective SIMD width of the active dispatch tier as `d`.
fp gateCost(const dd::mEdge& g, Qubit nQubits, unsigned threads) {
  return dmavCost(g, nQubits, threads,
                  simd::calibratedLanes(simd::KernelClass::Mac));
}

fp sumCost(const std::vector<dd::mEdge>& gates, Qubit nQubits,
           unsigned threads) {
  fp total = 0;
  for (const auto& g : gates) {
    total += gateCost(g, nQubits, threads);
  }
  return total;
}

}  // namespace

std::vector<dd::mEdge> dmavAwareFusion(dd::Package& pkg,
                                       const std::vector<dd::mEdge>& gates,
                                       unsigned threads, FusionStats* stats) {
  FDD_TIMED_SCOPE("fusion");
  const unsigned t = std::max(threads, 1u);
  std::vector<dd::mEdge> out;
  out.reserve(gates.size());
  FusionStats local;
  local.inputGates = gates.size();
  local.inputCost = sumCost(gates, pkg.numQubits(), t);

  // M_p starts as the identity with zero cost (Alg. 3 line 2); the first
  // iteration then always fuses, absorbing the identity.
  dd::mEdge mp = pkg.makeIdent(pkg.numQubits() - 1);
  pkg.incRef(mp);
  fp cp = 0;
  std::size_t np = 0;  // input gates fused into mp

  for (const dd::mEdge& mi : gates) {
    const fp ci = gateCost(mi, pkg.numQubits(), t);
    const dd::mEdge mip = pkg.multiply(mi, mp);  // DDMM: apply mp first
    ++local.ddmmCalls;
    const fp cip = gateCost(mip, pkg.numQubits(), t);
    if (ci + cp < cip) {
      // Sequential DMAV is cheaper: emit the pending matrix (its reference
      // transfers to the output list) and let the caller's reference on mi
      // become the new pending reference.
      out.push_back(mp);
      local.gatesPerOutput.push_back(np);
      mp = mi;
      cp = ci;
      np = 1;
    } else {
      pkg.incRef(mip);
      pkg.decRef(mp);
      pkg.decRef(mi);  // consume the caller's reference
      mp = mip;
      cp = cip;
      ++np;
    }
    pkg.garbageCollect();
  }
  out.push_back(mp);  // flush the final pending matrix (paper omission)
  local.gatesPerOutput.push_back(np);

  local.outputGates = out.size();
  local.outputCost = sumCost(out, pkg.numQubits(), t);
  if (stats != nullptr) {
    *stats = std::move(local);
  }
  return out;
}

std::vector<dd::mEdge> kOperationsFusion(dd::Package& pkg,
                                         const std::vector<dd::mEdge>& gates,
                                         unsigned k, unsigned threads,
                                         FusionStats* stats) {
  if (k == 0) {
    throw std::invalid_argument("kOperationsFusion: k must be positive");
  }
  FDD_TIMED_SCOPE("fusion");
  std::vector<dd::mEdge> out;
  out.reserve(gates.size() / k + 1);
  FusionStats local;
  local.inputGates = gates.size();
  local.inputCost = sumCost(gates, pkg.numQubits(), std::max(threads, 1u));

  std::size_t i = 0;
  while (i < gates.size()) {
    dd::mEdge fused = gates[i];  // take over the caller's reference
    std::size_t used = 1;
    while (used < k && i + used < gates.size()) {
      const dd::mEdge& next = gates[i + used];
      const dd::mEdge product = pkg.multiply(next, fused);
      ++local.ddmmCalls;
      pkg.incRef(product);
      pkg.decRef(fused);
      pkg.decRef(next);  // consume the caller's reference
      fused = product;
      ++used;
    }
    out.push_back(fused);
    local.gatesPerOutput.push_back(used);
    i += used;
    pkg.garbageCollect();
  }

  local.outputGates = out.size();
  local.outputCost = sumCost(out, pkg.numQubits(), std::max(threads, 1u));
  if (stats != nullptr) {
    *stats = std::move(local);
  }
  return out;
}

}  // namespace fdd::flat
