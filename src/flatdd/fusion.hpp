#pragma once
// DMAV-aware gate fusion (Section 3.3, Algorithm 3) and the k-operations
// baseline [100]. Both consume the gate-matrix DDs that remain after the
// DD-to-DMAV conversion point and return a (shorter) list of matrices to be
// applied by DMAV.
//
// Reference-count contract: input edges must be incRef'd by the caller and
// are decRef'd here as they are consumed; every returned edge is incRef'd
// (the caller decRefs after applying it).

#include <cstdint>
#include <vector>

#include "dd/package.hpp"

namespace fdd::flat {

struct FusionStats {
  std::size_t inputGates = 0;
  std::size_t outputGates = 0;
  std::size_t ddmmCalls = 0;
  fp inputCost = 0;   // sum of Eq. 5 costs before fusion
  fp outputCost = 0;  // sum of Eq. 5 costs after fusion
  /// Input gates each output matrix covers, in output order; sums to
  /// inputGates (Alg. 3's initial identity counts for none).
  std::vector<std::size_t> gatesPerOutput;
};

/// Algorithm 3: greedily fuses consecutive gates whenever the fused matrix
/// has a lower DMAV cost (Eq. 5) than applying the two sequentially.
/// (The paper's listing forgets to flush the final pending matrix M_p into
/// S; we append it, since dropping the last gate would be incorrect.)
[[nodiscard]] std::vector<dd::mEdge> dmavAwareFusion(
    dd::Package& pkg, const std::vector<dd::mEdge>& gates, unsigned threads,
    FusionStats* stats = nullptr);

/// k-operations [100]: unconditionally fuses every k consecutive gates via
/// DDMM (k = 4 reproduces the paper's comparison).
[[nodiscard]] std::vector<dd::mEdge> kOperationsFusion(
    dd::Package& pkg, const std::vector<dd::mEdge>& gates, unsigned k,
    unsigned threads, FusionStats* stats = nullptr);

}  // namespace fdd::flat
