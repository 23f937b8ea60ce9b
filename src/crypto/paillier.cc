#include "crypto/paillier.h"

#include "common/error.h"
#include "obs/metrics.h"

namespace dpss::crypto {

namespace {

/// L(x) = (x - 1) / d; x must be ≡ 1 mod d for a well-formed input.
Bigint ell(const Bigint& x, const Bigint& d) {
  return Bigint::divFloor(x - Bigint(1), d);
}

// Metric identities interned once; recording is one atomic op into the
// current node's registry (the node whose RPC handler is running).
const obs::MetricId kEncryptCount = obs::internCounter("paillier.encrypt.count");
const obs::MetricId kEncryptNs = obs::internHistogram("paillier.encrypt.ns");
const obs::MetricId kDecryptCount = obs::internCounter("paillier.decrypt.count");
const obs::MetricId kDecryptNs = obs::internHistogram("paillier.decrypt.ns");
const obs::MetricId kHomAddCount =
    obs::internCounter("paillier.homomorphic.add.count");
const obs::MetricId kHomMulCount =
    obs::internCounter("paillier.homomorphic.mul.count");

}  // namespace

PaillierPublicKey::PaillierPublicKey(Bigint n) : n_(std::move(n)) {
  DPSS_CHECK_MSG(n_ > Bigint(1), "Paillier modulus must exceed 1");
  n2_ = n_ * n_;
}

Bigint PaillierPublicKey::drawRandomizer(Rng& rng) const {
  // r uniform in Z*_n. gcd(r, n) != 1 would factor n; retry (never in
  // practice for honest keys).
  Bigint r;
  do {
    r = Bigint::randomBelow(rng, n_);
  } while (r.isZero() || !Bigint::gcd(r, n_).isOne());
  return r;
}

Ciphertext PaillierPublicKey::encrypt(const Bigint& m, Rng& rng) const {
  return encryptWithR(m, drawRandomizer(rng));
}

Ciphertext PaillierPublicKey::encryptWithR(const Bigint& m,
                                           const Bigint& r) const {
  obs::MetricsRegistry& reg = obs::currentRegistry();
  reg.counter(kEncryptCount).inc();
  obs::ScopedTimer timer(reg.histogram(kEncryptNs));
  DPSS_CHECK_MSG(m.sign() >= 0 && m < n_, "plaintext out of [0, n)");
  // g^m with g = n+1: (1 + m·n) mod n².
  const Bigint gm = (Bigint(1) + m * n_) % n2_;
  const Bigint rn = Bigint::powm(r, n_, n2_);
  return Ciphertext{(gm * rn) % n2_};
}

Ciphertext PaillierPublicKey::encryptGeneric(const Bigint& m, Rng& rng) const {
  return encryptGenericWithR(m, drawRandomizer(rng));
}

Ciphertext PaillierPublicKey::encryptGenericWithR(const Bigint& m,
                                                  const Bigint& r) const {
  obs::MetricsRegistry& reg = obs::currentRegistry();
  reg.counter(kEncryptCount).inc();
  obs::ScopedTimer timer(reg.histogram(kEncryptNs));
  DPSS_CHECK_MSG(m.sign() >= 0 && m < n_, "plaintext out of [0, n)");
  // The textbook form: g^m · r^n mod n², no g = n+1 shortcut, naive
  // square-and-multiply. Retained as the differential reference.
  const Bigint gm = Bigint::powmNaive(n_ + Bigint(1), m, n2_);
  const Bigint rn = Bigint::powmNaive(r, n_, n2_);
  return Ciphertext{(gm * rn) % n2_};
}

Ciphertext PaillierPublicKey::addCipher(const Ciphertext& a,
                                        const Ciphertext& b) const {
  obs::currentRegistry().counter(kHomAddCount).inc();
  return Ciphertext{(a.value * b.value) % n2_};
}

Ciphertext PaillierPublicKey::mulPlain(const Ciphertext& c,
                                       const Bigint& k) const {
  obs::currentRegistry().counter(kHomMulCount).inc();
  DPSS_CHECK_MSG(k.sign() >= 0, "scalar must be non-negative");
  return Ciphertext{Bigint::powm(c.value, k, n2_)};
}

Ciphertext PaillierPublicKey::addPlain(const Ciphertext& c,
                                       const Bigint& m) const {
  const Bigint gm = (Bigint(1) + (m % n_) * n_) % n2_;
  return Ciphertext{(c.value * gm) % n2_};
}

bool PaillierPublicKey::validCiphertext(const Ciphertext& c) const {
  return c.value.sign() >= 0 && c.value < n2_ &&
         Bigint::gcd(c.value, n_).isOne();
}

void PaillierPublicKey::serialize(ByteWriter& w) const {
  w.str(n_.toBytes());
}

PaillierPublicKey PaillierPublicKey::deserialize(ByteReader& r) {
  return PaillierPublicKey(Bigint::fromBytes(r.str()));
}

PaillierPrivateKey::PaillierPrivateKey(Bigint p, Bigint q)
    : p_(std::move(p)), q_(std::move(q)) {
  // Key material lives in SecretScalar; bind const views for the math.
  const Bigint& pv = p_.get();
  const Bigint& qv = q_.get();
  DPSS_CHECK_MSG(!(pv == qv), "p and q must differ");
  DPSS_CHECK_MSG(pv.isProbablePrime() && qv.isProbablePrime(),
                 "p and q must be prime");
  pub_ = PaillierPublicKey(pv * qv);
  const Bigint& n = pub_.n();
  const Bigint& n2 = pub_.nSquared();

  lambda_ = SecretScalar(Bigint::lcm(pv - Bigint(1), qv - Bigint(1)));
  // μ = L(g^λ mod n²)^{-1} mod n, g = n+1.
  const Bigint gl = Bigint::powm(n + Bigint(1), lambda_.get(), n2);
  mu_ = SecretScalar(Bigint::invert(ell(gl, n), n));

  p2_ = SecretScalar(pv * pv);
  q2_ = SecretScalar(qv * qv);
  pMinus1_ = SecretScalar(pv - Bigint(1));
  qMinus1_ = SecretScalar(qv - Bigint(1));
  const Bigint gp = Bigint::powm(n + Bigint(1), pMinus1_.get(), p2_.get());
  const Bigint gq = Bigint::powm(n + Bigint(1), qMinus1_.get(), q2_.get());
  hp_ = SecretScalar(Bigint::invert(ell(gp, pv) % pv, pv));
  hq_ = SecretScalar(Bigint::invert(ell(gq, qv) % qv, qv));
  pInvModQ_ = SecretScalar(Bigint::invert(pv, qv));
  qModPMinus1_ = SecretScalar(qv % pMinus1_.get());
  pModQMinus1_ = SecretScalar(pv % qMinus1_.get());
  p2InvModQ2_ = SecretScalar(Bigint::invert(p2_.get(), q2_.get()));
}

Ciphertext PaillierPrivateKey::encrypt(const Bigint& m, Rng& rng) const {
  const Bigint r = pub_.drawRandomizer(rng);
  obs::MetricsRegistry& reg = obs::currentRegistry();
  reg.counter(kEncryptCount).inc();
  obs::ScopedTimer timer(reg.histogram(kEncryptNs));
  const Bigint& n = pub_.n();
  const Bigint& n2 = pub_.nSquared();
  DPSS_CHECK_MSG(m.sign() >= 0 && m < n, "plaintext out of [0, n)");
  const Bigint& p = p_.get();
  const Bigint& q = q_.get();
  const Bigint& p2 = p2_.get();
  const Bigint& q2 = q2_.get();
  // r^n = (r^q)^p; r^q mod p = (r mod p)^{q mod (p-1)} (Fermat, r is a
  // unit), and (y + kp)^p ≡ y^p mod p². Likewise with p and q swapped.
  const Bigint rp = Bigint::powm(
      Bigint::powm(r % p, qModPMinus1_.get(), p), p, p2);
  const Bigint rq = Bigint::powm(
      Bigint::powm(r % q, pModQMinus1_.get(), q), q, q2);
  // r^n mod n² = rp + p²·((rq - rp)·(p²)^{-1} mod q²)
  const Bigint diff = ((rq - rp) % q2 + q2) % q2;
  const Bigint rn = rp + p2 * ((diff * p2InvModQ2_.get()) % q2);
  const Bigint gm = (Bigint(1) + m * n) % n2;
  return Ciphertext{(gm * rn) % n2};
}

Bigint PaillierPrivateKey::decrypt(const Ciphertext& c) const {
  obs::MetricsRegistry& reg = obs::currentRegistry();
  reg.counter(kDecryptCount).inc();
  obs::ScopedTimer timer(reg.histogram(kDecryptNs));
  const Bigint& n = pub_.n();
  const Bigint& n2 = pub_.nSquared();
  DPSS_CHECK_MSG(c.value.sign() >= 0 && c.value < n2,
                 "ciphertext out of range");
  const Bigint cl = Bigint::powm(c.value, lambda_.get(), n2);
  return (ell(cl, n) * mu_.get()) % n;
}

Bigint PaillierPrivateKey::decryptCrt(const Ciphertext& c) const {
  obs::MetricsRegistry& reg = obs::currentRegistry();
  reg.counter(kDecryptCount).inc();
  obs::ScopedTimer timer(reg.histogram(kDecryptNs));
  // m_p = L_p(c^{p-1} mod p²)·h_p mod p, likewise for q; then CRT.
  const Bigint& p = p_.get();
  const Bigint& q = q_.get();
  const Bigint& p2 = p2_.get();
  const Bigint& q2 = q2_.get();
  const Bigint cp = Bigint::powm(c.value % p2, pMinus1_.get(), p2);
  const Bigint cq = Bigint::powm(c.value % q2, qMinus1_.get(), q2);
  const Bigint mp = (ell(cp, p) % p) * hp_.get() % p;
  const Bigint mq = (ell(cq, q) % q) * hq_.get() % q;
  // m = mp + p·((mq - mp)·p^{-1} mod q)
  const Bigint diff = ((mq - mp) % q + q) % q;
  return mp + p * ((diff * pInvModQ_.get()) % q);
}

std::vector<Bigint> PaillierPrivateKey::decryptCrtBatch(
    const std::vector<Ciphertext>& cs) const {
  obs::MetricsRegistry& reg = obs::currentRegistry();
  reg.counter(kDecryptCount).inc(cs.size());
  obs::ScopedTimer timer(reg.histogram(kDecryptNs));
  std::vector<Bigint> out;
  out.reserve(cs.size());
  // Same per-element math as decryptCrt; one metrics touch and one
  // reserve for the whole batch instead of per call.
  const Bigint& p = p_.get();
  const Bigint& q = q_.get();
  const Bigint& p2 = p2_.get();
  const Bigint& q2 = q2_.get();
  for (const auto& c : cs) {
    const Bigint cp = Bigint::powm(c.value % p2, pMinus1_.get(), p2);
    const Bigint cq = Bigint::powm(c.value % q2, qMinus1_.get(), q2);
    const Bigint mp = (ell(cp, p) % p) * hp_.get() % p;
    const Bigint mq = (ell(cq, q) % q) * hq_.get() % q;
    const Bigint diff = ((mq - mp) % q + q) % q;
    out.push_back(mp + p * ((diff * pInvModQ_.get()) % q));
  }
  return out;
}

bool PaillierPrivateKey::isZeroModP(const Ciphertext& c) const {
  // With c = (1 + m·n)·r^n mod n²: r^{n(p-1)} ≡ 1 mod p² (the order
  // p(p-1) of Z*_{p²} divides n(p-1)), and (1 + m·n)^{p-1} ≡
  // 1 + (p-1)·m·n mod p², which is 1 iff p | m. Exact for m < p.
  const Bigint& p2 = p2_.get();
  return Bigint::powm(c.value % p2, pMinus1_.get(), p2).isOne();
}

bool PaillierPrivateKey::zeroTestCovers(std::uint64_t terms) const {
  // Σ of `terms` values < 2^32 is < terms·2^32 <= p whenever
  // terms < p >> 32 = floor(p / 2^32).
  const Bigint limit =
      Bigint::divFloor(p_.get(), Bigint(std::int64_t{1} << 32));
  return limit.bitLength() > 64 || terms < limit.toUint64();
}

void PaillierPrivateKey::serialize(ByteWriter& w) const {
  w.str(p_.get().toBytes());
  w.str(q_.get().toBytes());
}

PaillierPrivateKey PaillierPrivateKey::deserialize(ByteReader& r) {
  Bigint p = Bigint::fromBytes(r.str());
  Bigint q = Bigint::fromBytes(r.str());
  return PaillierPrivateKey(std::move(p), std::move(q));
}

PaillierKeyPair generateKeyPair(std::size_t modulusBits, Rng& rng) {
  DPSS_CHECK_MSG(modulusBits >= 64, "modulus must be at least 64 bits");
  const std::size_t half = modulusBits / 2;
  for (;;) {
    Bigint p = Bigint::randomPrime(rng, half);
    Bigint q = Bigint::randomPrime(rng, modulusBits - half);
    if (p == q) continue;
    const Bigint n = p * q;
    if (n.bitLength() != modulusBits) continue;
    // gcd(n, φ(n)) == 1 is automatic for same-size primes, but verify:
    // needed for λ to be invertible mod n.
    if (!Bigint::gcd(n, (p - Bigint(1)) * (q - Bigint(1))).isOne()) continue;
    PaillierPrivateKey priv(std::move(p), std::move(q));
    PaillierPublicKey pub = priv.publicKey();
    return PaillierKeyPair{std::move(pub), std::move(priv)};
  }
}

}  // namespace dpss::crypto
