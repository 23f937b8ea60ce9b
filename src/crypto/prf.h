// Keyed pseudo-random functions for the private search scheme (§III-C).
//
// BitPrf is the paper's g : Z × Z → {0,1} selecting which buffer slots a
// segment is folded into; the broker "returns the function g" to the
// client by shipping the seed, and both sides must evaluate identically —
// hence the platform-stable mixing in common/hash.h. Both sides read g
// one element at a time through BitPrf::column, which never returns an
// all-zero column (see there).
//
// BloomHashFamily is the h_1..h_k used by the matching-indices buffer.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.h"

namespace dpss::crypto {

/// g(i, j) ∈ {0,1}: whether stream element i touches buffer slot j.
class BitPrf {
 public:
  explicit BitPrf(std::uint64_t seed) : seed_(seed) {}

  /// The raw bit, exactly the paper's g. Folds and reconstruction read g
  /// through column(), never through this.
  bool operator()(std::uint64_t i, std::uint64_t j) const {
    return (mix64(hashCombine(hashCombine(seed_, i), j)) & 1) != 0;
  }

  /// The bits g(i, 0..width-1) of element i — the slots it folds into.
  /// An all-zero column would fold element i into no slot, and a lone
  /// matching candidate there could never be solved for (its one-column
  /// system is singular). So when every raw bit is zero, column() sets
  /// the one bit mix64(hashCombine(seed, i) ^ salt) % width. The rule is
  /// a public function of (seed, i) applied to every element, so it
  /// reveals nothing about which elements matched. Deviation from the
  /// paper's g.
  std::vector<bool> column(std::uint64_t i, std::size_t width) const {
    std::vector<bool> bits(width);
    bool any = false;
    for (std::size_t j = 0; j < width; ++j) {
      bits[j] = (*this)(i, j);
      any = any || bits[j];
    }
    if (!any && width > 0) {
      bits[mix64(hashCombine(seed_, i) ^ kEmptyColumnSalt) % width] = true;
    }
    return bits;
  }

  std::uint64_t seed() const { return seed_; }

 private:
  static constexpr std::uint64_t kEmptyColumnSalt = 0x6a09e667f3bcc909ULL;

  std::uint64_t seed_;
};

/// h_t(i) ∈ [0, range) for t = 0..k-1 — the Bloom-filter hash family of
/// the matching-indices buffer.
class BloomHashFamily {
 public:
  BloomHashFamily(std::uint64_t seed, std::size_t k, std::size_t range)
      : seed_(seed), k_(k), range_(range) {}

  std::size_t hash(std::size_t t, std::uint64_t i) const {
    return static_cast<std::size_t>(
        mix64(hashCombine(hashCombine(seed_, t * 0x9e3779b97f4a7c15ULL + 1),
                          i)) %
        range_);
  }

  /// All k slot indices for element i (may repeat; Bloom semantics allow it).
  std::vector<std::size_t> slots(std::uint64_t i) const {
    std::vector<std::size_t> out(k_);
    for (std::size_t t = 0; t < k_; ++t) out[t] = hash(t, i);
    return out;
  }

  std::uint64_t seed() const { return seed_; }
  std::size_t k() const { return k_; }
  std::size_t range() const { return range_; }

 private:
  std::uint64_t seed_;
  std::size_t k_;
  std::size_t range_;
};

}  // namespace dpss::crypto
