#include "crypto/bigint.h"

#include <memory>
#include <vector>

#include "common/error.h"

namespace dpss::crypto {

Bigint::Bigint(const std::string& decimal) {
  if (mpz_init_set_str(z_, decimal.c_str(), 10) != 0) {
    mpz_clear(z_);
    mpz_init(z_);
    throw InvalidArgument("not a decimal integer: '" + decimal + "'");
  }
}

Bigint operator+(const Bigint& a, const Bigint& b) {
  Bigint r;
  mpz_add(r.z_, a.z_, b.z_);
  return r;
}

Bigint operator-(const Bigint& a, const Bigint& b) {
  Bigint r;
  mpz_sub(r.z_, a.z_, b.z_);
  return r;
}

Bigint operator*(const Bigint& a, const Bigint& b) {
  Bigint r;
  mpz_mul(r.z_, a.z_, b.z_);
  return r;
}

Bigint operator%(const Bigint& a, const Bigint& b) {
  DPSS_CHECK_MSG(!b.isZero(), "modulo by zero");
  Bigint r;
  mpz_mod(r.z_, a.z_, b.z_);
  return r;
}

Bigint& Bigint::operator+=(const Bigint& b) {
  mpz_add(z_, z_, b.z_);
  return *this;
}

Bigint& Bigint::operator-=(const Bigint& b) {
  mpz_sub(z_, z_, b.z_);
  return *this;
}

Bigint& Bigint::operator*=(const Bigint& b) {
  mpz_mul(z_, z_, b.z_);
  return *this;
}

Bigint Bigint::divExact(const Bigint& a, const Bigint& b) {
  DPSS_CHECK_MSG(!b.isZero(), "division by zero");
  Bigint r;
  mpz_divexact(r.z_, a.z_, b.z_);
  return r;
}

Bigint Bigint::divFloor(const Bigint& a, const Bigint& b) {
  DPSS_CHECK_MSG(!b.isZero(), "division by zero");
  Bigint r;
  mpz_fdiv_q(r.z_, a.z_, b.z_);
  return r;
}

Bigint Bigint::powm(const Bigint& base, const Bigint& exp, const Bigint& m) {
  DPSS_CHECK_MSG(m.sign() > 0, "powm modulus must be positive");
  DPSS_CHECK_MSG(exp.sign() >= 0, "powm exponent must be non-negative");
  Bigint r;
  mpz_powm(r.z_, base.z_, exp.z_, m.z_);
  return r;
}

Bigint Bigint::powmNaive(const Bigint& base, const Bigint& exp,
                         const Bigint& m) {
  DPSS_CHECK_MSG(m.sign() > 0, "powm modulus must be positive");
  DPSS_CHECK_MSG(exp.sign() >= 0, "powm exponent must be non-negative");
  Bigint result(1);
  result = result % m;  // m == 1 must yield 0
  Bigint b = base % m;
  const std::size_t bits = exp.bitLength();
  // Left-to-right binary: square always, multiply on a set bit.
  for (std::size_t i = bits; i-- > 0;) {
    result = (result * result) % m;
    if (exp.testBit(i)) result = (result * b) % m;
  }
  return result;
}

Bigint Bigint::invert(const Bigint& x, const Bigint& m) {
  Bigint r;
  if (mpz_invert(r.z_, x.z_, m.z_) == 0) {
    throw CryptoError("element not invertible modulo m (gcd != 1)");
  }
  return r;
}

Bigint Bigint::gcd(const Bigint& a, const Bigint& b) {
  Bigint r;
  mpz_gcd(r.z_, a.z_, b.z_);
  return r;
}

Bigint Bigint::lcm(const Bigint& a, const Bigint& b) {
  Bigint r;
  mpz_lcm(r.z_, a.z_, b.z_);
  return r;
}

std::string Bigint::toString() const {
  // +2: sign and NUL.
  std::vector<char> buf(mpz_sizeinbase(z_, 10) + 2);
  mpz_get_str(buf.data(), 10, z_);
  return std::string(buf.data());
}

std::uint64_t Bigint::toUint64() const {
  if (sign() < 0) throw InvalidArgument("negative Bigint to uint64");
  if (bitLength() > 64) throw InvalidArgument("Bigint does not fit uint64");
  std::uint64_t v = 0;
  // mpz_get_ui may truncate on 32-bit longs; export bytes instead.
  const std::string bytes = toBytes();
  for (const char c : bytes) v = (v << 8) | static_cast<unsigned char>(c);
  return v;
}

std::string Bigint::toBytes() const {
  DPSS_CHECK_MSG(sign() >= 0, "cannot serialize negative Bigint");
  if (isZero()) return {};
  const std::size_t n = (bitLength() + 7) / 8;
  std::string out(n, '\0');
  std::size_t written = 0;
  mpz_export(out.data(), &written, /*order=*/1, /*size=*/1, /*endian=*/1,
             /*nails=*/0, z_);
  DPSS_CHECK(written == n);
  return out;
}

Bigint Bigint::fromBytes(std::string_view bytes) {
  Bigint r;
  if (!bytes.empty()) {
    mpz_import(r.z_, bytes.size(), /*order=*/1, /*size=*/1, /*endian=*/1,
               /*nails=*/0, bytes.data());
  }
  return r;
}

Bigint Bigint::randomBits(Rng& rng, std::size_t bits) {
  DPSS_CHECK_MSG(bits >= 1, "randomBits needs bits >= 1");
  const std::size_t nbytes = (bits + 7) / 8;
  std::string buf(nbytes, '\0');
  for (auto& c : buf) c = static_cast<char>(rng.next() & 0xff);
  // Mask excess bits, then force the top bit so the width is exact.
  const std::size_t excess = nbytes * 8 - bits;
  auto top = static_cast<unsigned char>(buf[0]);
  top &= static_cast<unsigned char>(0xff >> excess);
  top |= static_cast<unsigned char>(1u << (7 - excess));
  buf[0] = static_cast<char>(top);
  return fromBytes(buf);
}

Bigint Bigint::randomBelow(Rng& rng, const Bigint& n) {
  DPSS_CHECK_MSG(n.sign() > 0, "randomBelow needs n > 0");
  const std::size_t bits = n.bitLength();
  const std::size_t nbytes = (bits + 7) / 8;
  const std::size_t excess = nbytes * 8 - bits;
  std::string buf(nbytes, '\0');
  for (;;) {
    for (auto& c : buf) c = static_cast<char>(rng.next() & 0xff);
    buf[0] = static_cast<char>(static_cast<unsigned char>(buf[0]) &
                               (0xff >> excess));
    Bigint candidate = fromBytes(buf);
    if (candidate < n) return candidate;
  }
}

Bigint Bigint::randomPrime(Rng& rng, std::size_t bits) {
  DPSS_CHECK_MSG(bits >= 8, "randomPrime needs bits >= 8");
  for (;;) {
    Bigint candidate = randomBits(rng, bits);
    mpz_setbit(candidate.z_, 0);  // make odd
    if (candidate.isProbablePrime()) return candidate;
    // nextprime accelerates the search; re-check the width afterwards.
    Bigint next;
    mpz_nextprime(next.z_, candidate.z_);
    if (next.bitLength() == bits) return next;
  }
}

}  // namespace dpss::crypto
