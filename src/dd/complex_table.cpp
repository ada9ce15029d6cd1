#include "dd/complex_table.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace fdd::dd {

namespace {
constexpr fp kSeedValues[] = {0.0,  1.0,        -1.0,       0.5,
                              -0.5, SQRT2_INV, -SQRT2_INV};
}  // namespace

RealTable::RealTable(fp tolerance)
    : tol_{tolerance}, bucketWidth_{4 * tolerance}, slots_(kSlots, nullptr) {
  // Pre-seed the values virtually every gate set produces, so they become
  // the representatives rather than whatever jittered variant shows up first.
  for (const fp v : kSeedValues) {
    (void)lookup(v);
  }
}

std::int64_t RealTable::bucketOf(fp x) const noexcept {
  return static_cast<std::int64_t>(std::floor(x / bucketWidth_));
}

std::size_t RealTable::slotOf(std::int64_t id) noexcept {
  auto h = static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  return static_cast<std::size_t>(h) & (kSlots - 1);
}

bool RealTable::findIn(std::int64_t id, fp x, fp& out) const noexcept {
  for (const BucketNode* bucket = slots_[slotOf(id)]; bucket != nullptr;
       bucket = bucket->next) {
    if (bucket->id != id) {
      continue;
    }
    for (const ValueNode* v = bucket->values; v != nullptr; v = v->next) {
      if (std::abs(v->value - x) <= tol_) {
        out = v->value;
        return true;
      }
    }
    return false;
  }
  return false;
}

fp RealTable::lookup(fp x) {
  // Exact and near-zero values snap to canonical +0.0 (zero is special: it
  // decides edge zero-ness, so it must never be "merely close").
  if (x == 0.0 || (x <= tol_ && x >= -tol_)) {
    return 0.0;
  }
  const std::int64_t b = bucketOf(x);
  fp out;
  for (std::int64_t probe = b - 1; probe <= b + 1; ++probe) {
    if (findIn(probe, x, out)) {
      return out;
    }
  }
  prepend(findOrCreateBucket(b), x);
  return x;
}

RealTable::BucketNode* RealTable::findOrCreateBucket(std::int64_t id) {
  BucketNode*& head = slots_[slotOf(id)];
  for (BucketNode* cur = head; cur != nullptr; cur = cur->next) {
    if (cur->id == id) {
      return cur;
    }
  }
  head = &bucketArena_.emplace_back(BucketNode{id, head, nullptr});
  return head;
}

void RealTable::prepend(BucketNode* bucket, fp x) {
  bucket->values = &valueArena_.emplace_back(ValueNode{x, bucket->values});
  ++count_;
}

void RealTable::insertExact(fp x) {
  if (x == 0.0) {
    return;  // zero is implicit
  }
  BucketNode* bucket = findOrCreateBucket(bucketOf(x));
  for (const ValueNode* v = bucket->values; v != nullptr; v = v->next) {
    if (v->value == x) {
      return;
    }
  }
  prepend(bucket, x);
}

void RealTable::clear() {
  std::fill(slots_.begin(), slots_.end(), nullptr);
  bucketArena_.clear();
  valueArena_.clear();
  count_ = 0;
  for (const fp v : kSeedValues) {
    (void)lookup(v);
  }
}

std::size_t RealTable::memoryBytes() const noexcept {
  std::size_t bytes = slots_.size() * sizeof(BucketNode*);
  bytes += bucketArena_.size() * sizeof(BucketNode);
  bytes += valueArena_.size() * sizeof(ValueNode);
  return bytes;
}

ComplexTable::ComplexTable(fp tolerance) : table_{tolerance} {}

Complex ComplexTable::lookup(Complex z) {
  return {table_.lookup(z.real()), table_.lookup(z.imag())};
}

std::uint64_t weightHash(const Complex& w) noexcept {
  const auto re = std::bit_cast<std::uint64_t>(w.real());
  const auto im = std::bit_cast<std::uint64_t>(w.imag());
  std::uint64_t h = re * 0x9e3779b97f4a7c15ULL;
  h ^= (im + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  return h;
}

}  // namespace fdd::dd
