#include "engine/ordering.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <limits>
#include <utility>

namespace fdd::engine {

QubitOrdering QubitOrdering::identity(Qubit n) {
  QubitOrdering ord;
  ord.levelOfQubit.resize(static_cast<std::size_t>(n));
  ord.qubitAtLevel.resize(static_cast<std::size_t>(n));
  for (Qubit q = 0; q < n; ++q) {
    ord.levelOfQubit[static_cast<std::size_t>(q)] = q;
    ord.qubitAtLevel[static_cast<std::size_t>(q)] = q;
  }
  return ord;
}

QubitOrdering QubitOrdering::fromQubitAtLevel(std::vector<Qubit> qubitAtLevel) {
  QubitOrdering ord;
  ord.qubitAtLevel = std::move(qubitAtLevel);
  ord.levelOfQubit.resize(ord.qubitAtLevel.size());
  for (std::size_t level = 0; level < ord.qubitAtLevel.size(); ++level) {
    ord.levelOfQubit[static_cast<std::size_t>(ord.qubitAtLevel[level])] =
        static_cast<Qubit>(level);
  }
  return ord;
}

bool QubitOrdering::isIdentity() const noexcept {
  for (std::size_t q = 0; q < levelOfQubit.size(); ++q) {
    if (levelOfQubit[q] != static_cast<Qubit>(q)) {
      return false;
    }
  }
  return true;
}

Index QubitOrdering::mapIndex(Index logical) const noexcept {
  Index internal = 0;
  for (std::size_t q = 0; q < levelOfQubit.size(); ++q) {
    internal |= ((logical >> q) & 1) << levelOfQubit[q];
  }
  return internal;
}

Index QubitOrdering::unmapIndex(Index internal) const noexcept {
  Index logical = 0;
  for (std::size_t level = 0; level < qubitAtLevel.size(); ++level) {
    logical |= ((internal >> level) & 1) << qubitAtLevel[level];
  }
  return logical;
}

qc::Operation QubitOrdering::mapOperation(const qc::Operation& op) const {
  qc::Operation mapped = op;
  mapped.target = levelOfQubit[static_cast<std::size_t>(op.target)];
  for (Qubit& c : mapped.controls) {
    c = levelOfQubit[static_cast<std::size_t>(c)];
  }
  std::sort(mapped.controls.begin(), mapped.controls.end());
  return mapped;
}

qc::Circuit QubitOrdering::mapCircuit(const qc::Circuit& circuit) const {
  qc::Circuit mapped{circuit.numQubits(), circuit.name()};
  for (const auto& op : circuit) {
    mapped.append(mapOperation(op));
  }
  return mapped;
}

std::string QubitOrdering::toString() const {
  std::string s;
  for (std::size_t level = qubitAtLevel.size(); level-- > 0;) {
    s += 'q';
    s += std::to_string(qubitAtLevel[level]);
    if (level != 0) {
      s += ' ';
    }
  }
  return s;
}

QubitOrdering scoreOrdering(const qc::Circuit& circuit) {
  const auto n = static_cast<std::size_t>(circuit.numQubits());
  if (n < 2) {
    return QubitOrdering::identity(circuit.numQubits());
  }

  // Symmetric interaction weights: a control-target pair is the strongest
  // signal (their subtrees couple directly in the gate DD), control-control
  // pairs half as strong.
  std::vector<double> weight(n * n, 0.0);
  std::vector<std::size_t> firstUse(n, std::numeric_limits<std::size_t>::max());
  const auto touch = [&](Qubit q, std::size_t gate) {
    auto& first = firstUse[static_cast<std::size_t>(q)];
    first = std::min(first, gate);
  };
  std::size_t gateIndex = 0;
  for (const auto& op : circuit) {
    touch(op.target, gateIndex);
    for (const Qubit c : op.controls) {
      touch(c, gateIndex);
      weight[static_cast<std::size_t>(c) * n +
             static_cast<std::size_t>(op.target)] += 1.0;
      weight[static_cast<std::size_t>(op.target) * n +
             static_cast<std::size_t>(c)] += 1.0;
    }
    for (std::size_t i = 0; i < op.controls.size(); ++i) {
      for (std::size_t j = i + 1; j < op.controls.size(); ++j) {
        const auto a = static_cast<std::size_t>(op.controls[i]);
        const auto b = static_cast<std::size_t>(op.controls[j]);
        weight[a * n + b] += 0.5;
        weight[b * n + a] += 0.5;
      }
    }
    ++gateIndex;
  }

  std::vector<double> totalWeight(n, 0.0);
  for (std::size_t q = 0; q < n; ++q) {
    for (std::size_t r = 0; r < n; ++r) {
      totalWeight[q] += weight[q * n + r];
    }
  }

  // `a` is preferred over `b` on equal scores: earlier first use, then the
  // smaller label (keeps the result deterministic and close to the input
  // order when the score is indifferent).
  const auto prefer = [&](std::size_t a, std::size_t b) {
    return firstUse[a] != firstUse[b] ? firstUse[a] < firstUse[b] : a < b;
  };

  std::size_t seed = n;  // invalid until an interacting qubit is found
  for (std::size_t q = 0; q < n; ++q) {
    if (totalWeight[q] <= 0.0) {
      continue;
    }
    if (seed == n || totalWeight[q] > totalWeight[seed] ||
        (totalWeight[q] == totalWeight[seed] && prefer(q, seed))) {
      seed = q;
    }
  }
  if (seed == n) {
    return QubitOrdering::identity(circuit.numQubits());  // no 2-qubit gates
  }

  // Double-ended greedy placement: each step appends the unplaced qubit
  // with the highest proximity-discounted affinity (2^-distance to each
  // placed qubit) to whichever end attracts it more — heavy pairs end up
  // adjacent, chains unroll into paths.
  std::deque<std::size_t> placed;
  std::vector<bool> done(n, false);
  placed.push_back(seed);
  done[seed] = true;
  std::size_t interacting = 0;
  for (std::size_t q = 0; q < n; ++q) {
    interacting += totalWeight[q] > 0.0 ? 1 : 0;
  }
  while (placed.size() < interacting) {
    std::size_t bestQ = n;
    bool bestFront = false;
    double bestScore = -1.0;
    for (std::size_t q = 0; q < n; ++q) {
      if (done[q] || totalWeight[q] <= 0.0) {
        continue;
      }
      double front = 0.0;
      double back = 0.0;
      double scale = 1.0;
      for (std::size_t p = 0; p < placed.size(); ++p) {
        scale *= 0.5;  // 2^-(p+1)
        front += weight[q * n + placed[p]] * scale;
        back += weight[q * n + placed[placed.size() - 1 - p]] * scale;
      }
      const double score = std::max(front, back);
      if (score > bestScore ||
          (score == bestScore && (bestQ == n || prefer(q, bestQ)))) {
        bestScore = score;
        bestQ = q;
        bestFront = front > back;
      }
    }
    if (bestFront) {
      placed.push_front(bestQ);
    } else {
      placed.push_back(bestQ);
    }
    done[bestQ] = true;
  }
  // Non-interacting qubits keep their input order at the back (their single
  // chain node is order-insensitive).
  for (std::size_t q = 0; q < n; ++q) {
    if (!done[q]) {
      placed.push_back(q);
    }
  }

  // The deque's head goes to the top DD level; any consistent assignment
  // works (DD size only depends on relative order), this one keeps the seed
  // where most of the weight is.
  std::vector<Qubit> qubitAtLevel(n);
  for (std::size_t k = 0; k < n; ++k) {
    qubitAtLevel[n - 1 - k] = static_cast<Qubit>(placed[k]);
  }

  // Adopt the scored order only if it clearly beats identity on the weighted
  // interaction-distance objective. On all-to-all families (Grover, QAOA on
  // complete graphs) every order costs the same, and remapping anyway would
  // perturb the flat-phase kernel strides for zero DD benefit.
  const auto distanceCost = [&](const std::vector<Qubit>& levels) {
    double cost = 0.0;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (weight[a * n + b] > 0.0) {
          const int la = static_cast<int>(levels[a]);
          const int lb = static_cast<int>(levels[b]);
          cost += weight[a * n + b] * std::abs(la - lb);
        }
      }
    }
    return cost;
  };
  std::vector<Qubit> scoredLevelOf(n);
  std::vector<Qubit> identityLevelOf(n);
  for (std::size_t l = 0; l < n; ++l) {
    scoredLevelOf[static_cast<std::size_t>(qubitAtLevel[l])] =
        static_cast<Qubit>(l);
    identityLevelOf[l] = static_cast<Qubit>(l);
  }
  if (distanceCost(scoredLevelOf) >= 0.9 * distanceCost(identityLevelOf)) {
    return QubitOrdering::identity(circuit.numQubits());
  }
  return QubitOrdering::fromQubitAtLevel(std::move(qubitAtLevel));
}

namespace {

class OrderedBackend final : public Backend {
 public:
  OrderedBackend(std::unique_ptr<Backend> inner, QubitOrdering ordering)
      : inner_{std::move(inner)}, ord_{std::move(ordering)} {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] Qubit numQubits() const override {
    return inner_->numQubits();
  }

  void reset() override { inner_->reset(); }

  void setState(std::span<const Complex> amplitudes) override {
    AlignedVector<Complex> permuted(amplitudes.size());
    for (Index i = 0; i < amplitudes.size(); ++i) {
      permuted[ord_.mapIndex(i)] = amplitudes[i];
    }
    inner_->setState(permuted);
  }

  void applyOperation(const qc::Operation& op) override {
    inner_->applyOperation(ord_.mapOperation(op));
  }
  void simulate(const qc::Circuit& circuit) override {
    inner_->simulate(ord_.mapCircuit(circuit));
  }

  [[nodiscard]] Complex amplitude(Index i) const override {
    return inner_->amplitude(ord_.mapIndex(i));
  }
  [[nodiscard]] AlignedVector<Complex> stateVector() const override {
    const AlignedVector<Complex> internal = inner_->stateVector();
    AlignedVector<Complex> logical(internal.size());
    for (Index i = 0; i < internal.size(); ++i) {
      logical[i] = internal[ord_.mapIndex(i)];
    }
    return logical;
  }
  [[nodiscard]] std::vector<Index> sample(std::size_t shots,
                                          Xoshiro256& rng) const override {
    std::vector<Index> samples = inner_->sample(shots, rng);
    for (Index& s : samples) {
      s = ord_.unmapIndex(s);
    }
    return samples;
  }

  [[nodiscard]] std::size_t memoryBytes() const override {
    return inner_->memoryBytes();
  }

  void fillReport(RunReport& report) const override {
    inner_->fillReport(report);
    report.ordering = ord_.qubitAtLevel;
  }

  [[nodiscard]] std::string exportDot() const override {
    return inner_->exportDot();
  }

 private:
  std::unique_ptr<Backend> inner_;
  QubitOrdering ord_;
};

}  // namespace

std::unique_ptr<Backend> makeOrderedBackend(std::unique_ptr<Backend> inner,
                                            QubitOrdering ordering) {
  return std::make_unique<OrderedBackend>(std::move(inner),
                                          std::move(ordering));
}

}  // namespace fdd::engine
