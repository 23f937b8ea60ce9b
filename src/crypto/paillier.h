// Paillier cryptosystem [Paillier, EUROCRYPT'99] — the additively
// homomorphic scheme the paper's private search runs on (§III-C).
//
// Plaintext space Z_n, ciphertext space Z*_{n²}, generator g = n + 1
// (the standard fast variant: g^m = 1 + m·n mod n²).
//
//   E(m) = (1 + m·n) · r^n  mod n²            r uniform in Z*_n
//   D(c) = L(c^λ mod n²) · μ  mod n           L(x) = (x - 1) / n
//
// Homomorphisms used by the search scheme:
//   E(a)·E(b)      = E(a + b)                 (Ciphertext "addCipher")
//   E(a)^k         = E(a·k)                   (plaintext scalar "mulPlain")
//
// Decryption also ships a CRT fast path (decrypt via p and q separately,
// ~4x faster); bench_ablation_paillier measures both. A zero test that
// only needs "is m = 0?" runs on the p half alone (isZeroModP).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/bigint.h"
#include "crypto/sensitive.h"

namespace dpss::crypto {

/// A Paillier ciphertext: an element of Z*_{n²}. Distinct type so plaintext
/// Bigints can never be passed where a ciphertext is expected.
struct Ciphertext {
  Bigint value;

  /// Wire form. CiphertextBlob (crypto/sensitive.h) is the one
  /// sensitive-adjacent payload sanctioned to cross the trust boundary;
  /// every ciphertext serialization path goes through it so the codec
  /// states which species it carries.
  CiphertextBlob toBlob() const { return CiphertextBlob(value.toBytes()); }
  static Ciphertext fromBlob(const CiphertextBlob& blob) {
    return Ciphertext{Bigint::fromBytes(blob.wire())};
  }

  friend bool operator==(const Ciphertext& a, const Ciphertext& b) = default;
};

/// Public key: everything the broker needs to run the stream search.
class PaillierPublicKey {
 public:
  PaillierPublicKey() = default;
  explicit PaillierPublicKey(Bigint n);

  const Bigint& n() const { return n_; }
  const Bigint& nSquared() const { return n2_; }
  std::size_t modulusBits() const { return n_.bitLength(); }

  /// Largest value encodable in one plaintext: n - 1.
  Bigint maxPlaintext() const { return n_ - Bigint(1); }

  /// E(m) with fresh randomness. Requires 0 <= m < n. Fast path: with
  /// g = n+1, g^m collapses to (1 + m·n) mod n², leaving r^n as the only
  /// exponentiation.
  Ciphertext encrypt(const Bigint& m, Rng& rng) const;

  /// E(0) with fresh randomness — buffer slots start as encrypted zeros.
  Ciphertext encryptZero(Rng& rng) const { return encrypt(Bigint(0), rng); }

  /// Reference encryption: g^m · r^n mod n² with both exponentiations
  /// done by the naive square-and-multiply kernel, no g = n+1 shortcut.
  /// The differential suite pins encrypt == encryptGeneric for equal r;
  /// bench_pss_hotpath measures the gap. Never a hot path.
  Ciphertext encryptGeneric(const Bigint& m, Rng& rng) const;

  /// Deterministic fast-path encryption from an explicit randomizer
  /// r ∈ Z*_n: (1 + m·n) · r^n mod n².
  Ciphertext encryptWithR(const Bigint& m, const Bigint& r) const;

  /// Deterministic reference sibling of encryptWithR (generic g^m · r^n,
  /// naive kernel). Same r ⇒ byte-identical ciphertext to encryptWithR.
  Ciphertext encryptGenericWithR(const Bigint& m, const Bigint& r) const;

  /// Draws r uniform in Z*_n — the rejection loop shared by encrypt and
  /// encryptGeneric so both consume randomness identically (same Rng
  /// state ⇒ same r ⇒ same ciphertext).
  Bigint drawRandomizer(Rng& rng) const;

  /// E(a)·E(b) mod n² = E(a+b).
  Ciphertext addCipher(const Ciphertext& a, const Ciphertext& b) const;

  /// c^k mod n² = E(m·k). Requires k >= 0.
  Ciphertext mulPlain(const Ciphertext& c, const Bigint& k) const;

  /// c·(1+mn) mod n² = E(m' + m) without fresh randomness (used only where
  /// the operand is already a ciphertext with randomness of its own).
  Ciphertext addPlain(const Ciphertext& c, const Bigint& m) const;

  /// True iff v is a syntactically valid ciphertext (in [0, n²), unit).
  bool validCiphertext(const Ciphertext& c) const;

  void serialize(ByteWriter& w) const;
  static PaillierPublicKey deserialize(ByteReader& r);

 private:
  Bigint n_;
  Bigint n2_;
};

/// Private key with CRT precomputation.
///
/// All key material lives in SecretScalar (crypto/sensitive.h): the key
/// is move-only — a copy would be an uncontrolled second residence for
/// the factorization of n — and every scalar is scrubbed on
/// destruction. serialize() remains the one audited persistence path.
class PaillierPrivateKey {
 public:
  PaillierPrivateKey() = default;
  /// p, q distinct odd primes; the public modulus is n = p·q.
  PaillierPrivateKey(Bigint p, Bigint q);

  PaillierPrivateKey(const PaillierPrivateKey&) = delete;
  PaillierPrivateKey& operator=(const PaillierPrivateKey&) = delete;
  PaillierPrivateKey(PaillierPrivateKey&&) noexcept = default;
  PaillierPrivateKey& operator=(PaillierPrivateKey&&) noexcept = default;

  const PaillierPublicKey& publicKey() const { return pub_; }

  /// Standard decryption through λ and μ.
  Bigint decrypt(const Ciphertext& c) const;

  /// CRT decryption (identical result, ~4x faster).
  Bigint decryptCrt(const Ciphertext& c) const;

  /// Batched CRT decryption: one pass over many ciphertexts (the client
  /// opening l_F·(s+1) + l_I buffer slots), amortizing per-call overhead.
  /// Element-wise identical to decryptCrt.
  std::vector<Bigint> decryptCrtBatch(const std::vector<Ciphertext>& cs) const;

  /// Zero test on one CRT half: true iff c^{p-1} mod p² == 1, i.e. iff
  /// the plaintext is ≡ 0 mod p. One exponentiation mod p² instead of
  /// decryptCrt's two plus the recombination. Equal to
  /// decryptCrt(c).isZero() only for plaintexts below p: the caller must
  /// bound its plaintexts (see zeroTestCovers).
  bool isZeroModP(const Ciphertext& c) const;

  /// True iff a sum of `terms` plaintexts, each below 2^32, is certain to
  /// stay below p (terms < p >> 32), so isZeroModP decides it exactly.
  bool zeroTestCovers(std::uint64_t terms) const;

  /// Serializes (p, q); deserialize re-derives all precomputation.
  /// Protect the bytes accordingly — this IS the private key.
  void serialize(ByteWriter& w) const;
  static PaillierPrivateKey deserialize(ByteReader& r);

 private:
  PaillierPublicKey pub_;
  SecretScalar p_, q_;
  SecretScalar lambda_, mu_;
  // CRT precomputation.
  SecretScalar p2_, q2_;  // p², q²
  SecretScalar pMinus1_, qMinus1_;
  SecretScalar hp_, hq_;  // Lp(g^{p-1} mod p²)^{-1} mod p, and for q
  SecretScalar pInvModQ_;
};

struct PaillierKeyPair {
  PaillierPublicKey pub;
  PaillierPrivateKey priv;
};

/// Generates a fresh key pair with an exactly `modulusBits`-bit modulus.
/// modulusBits >= 64 (use >= 2048 for real deployments; tests use small
/// keys for speed). Deterministic given the Rng state.
PaillierKeyPair generateKeyPair(std::size_t modulusBits, Rng& rng);

}  // namespace dpss::crypto
