// RAII arbitrary-precision integer over GMP's mpz_t.
//
// Wraps the C API so the rest of dpss never touches raw mpz_t (Core
// Guidelines R.1). Deterministic randomness comes from dpss::Rng rather
// than GMP's randstate so key generation and PSS runs are reproducible
// from a single seed.
#pragma once

#include <gmp.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "common/rng.h"

namespace dpss::crypto {

class Bigint {
 public:
  /// Zero.
  Bigint() { mpz_init(z_); }
  /// From a machine integer.
  Bigint(std::int64_t v) { mpz_init_set_si(z_, v); }  // NOLINT(implicit)
  /// From a decimal string (leading '-' allowed). Throws InvalidArgument.
  explicit Bigint(const std::string& decimal);

  Bigint(const Bigint& other) { mpz_init_set(z_, other.z_); }
  Bigint(Bigint&& other) noexcept {
    mpz_init(z_);
    mpz_swap(z_, other.z_);
  }
  Bigint& operator=(const Bigint& other) {
    if (this != &other) mpz_set(z_, other.z_);
    return *this;
  }
  Bigint& operator=(Bigint&& other) noexcept {
    mpz_swap(z_, other.z_);
    return *this;
  }
  ~Bigint() { mpz_clear(z_); }

  // --- arithmetic -----------------------------------------------------
  friend Bigint operator+(const Bigint& a, const Bigint& b);
  friend Bigint operator-(const Bigint& a, const Bigint& b);
  friend Bigint operator*(const Bigint& a, const Bigint& b);
  /// Floor division remainder in [0, |b|) for b > 0 (mpz_mod semantics).
  friend Bigint operator%(const Bigint& a, const Bigint& b);
  Bigint& operator+=(const Bigint& b);
  Bigint& operator-=(const Bigint& b);
  Bigint& operator*=(const Bigint& b);

  /// Exact division; behaviour undefined unless b divides a (mpz_divexact).
  static Bigint divExact(const Bigint& a, const Bigint& b);
  /// Floor quotient.
  static Bigint divFloor(const Bigint& a, const Bigint& b);

  // --- modular --------------------------------------------------------
  /// base^exp mod m (exp >= 0, m > 0). The production kernel: GMP's
  /// mpz_powm (Montgomery + internal windowing).
  static Bigint powm(const Bigint& base, const Bigint& exp, const Bigint& m);
  /// Reference binary square-and-multiply modexp built from mul/mod
  /// only — the naive sibling every fast kernel is differential-tested
  /// against (tests/crypto/differential_test.cc). Never a hot path.
  static Bigint powmNaive(const Bigint& base, const Bigint& exp,
                          const Bigint& m);
  /// x^-1 mod m; throws CryptoError when gcd(x, m) != 1.
  static Bigint invert(const Bigint& x, const Bigint& m);
  static Bigint gcd(const Bigint& a, const Bigint& b);
  static Bigint lcm(const Bigint& a, const Bigint& b);

  // --- comparison -----------------------------------------------------
  friend bool operator==(const Bigint& a, const Bigint& b) {
    return mpz_cmp(a.z_, b.z_) == 0;
  }
  friend auto operator<=>(const Bigint& a, const Bigint& b) {
    return mpz_cmp(a.z_, b.z_) <=> 0;
  }
  bool isZero() const { return mpz_sgn(z_) == 0; }
  bool isOne() const { return mpz_cmp_ui(z_, 1) == 0; }
  int sign() const { return mpz_sgn(z_); }

  // --- conversion -----------------------------------------------------
  std::string toString() const;
  /// Throws InvalidArgument when the value does not fit or is negative.
  std::uint64_t toUint64() const;
  /// Number of bits in the magnitude (0 for zero).
  std::size_t bitLength() const {
    return isZero() ? 0 : mpz_sizeinbase(z_, 2);
  }
  /// Bit i of the magnitude (i = 0 is the least significant).
  bool testBit(std::size_t i) const { return mpz_tstbit(z_, i) != 0; }

  /// Big-endian magnitude bytes (empty for zero). Sign is not encoded;
  /// all serialized dpss values are non-negative.
  std::string toBytes() const;
  static Bigint fromBytes(std::string_view bytes);

  // --- randomness & primes (deterministic via dpss::Rng) ---------------
  /// Uniform integer with exactly `bits` bits (top bit set). bits >= 1.
  static Bigint randomBits(Rng& rng, std::size_t bits);
  /// Uniform in [0, n) via rejection sampling. n > 0.
  static Bigint randomBelow(Rng& rng, const Bigint& n);
  /// Random prime with exactly `bits` bits. bits >= 8.
  static Bigint randomPrime(Rng& rng, std::size_t bits);
  /// Miller–Rabin with `reps` rounds (mpz_probab_prime_p).
  bool isProbablePrime(int reps = 30) const {
    return mpz_probab_prime_p(z_, reps) != 0;
  }

  /// Escape hatch for GMP-level code inside dpss::crypto only.
  mpz_srcptr raw() const { return z_; }
  mpz_ptr raw() { return z_; }

 private:
  mpz_t z_;
};

}  // namespace dpss::crypto
