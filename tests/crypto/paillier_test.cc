#include "crypto/paillier.h"

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/error.h"
#include "common/rng.h"

namespace dpss::crypto {
namespace {

class PaillierTest : public ::testing::Test {
 protected:
  // 256-bit keys keep tests fast; the scheme is parametric in key size.
  PaillierTest() : rng_(1234), kp_(generateKeyPair(256, rng_)) {}

  Rng rng_;
  PaillierKeyPair kp_;
};

TEST_F(PaillierTest, KeyHasRequestedModulusBits) {
  EXPECT_EQ(kp_.pub.modulusBits(), 256u);
}

TEST_F(PaillierTest, EncryptDecryptRoundTrip) {
  for (const std::int64_t m : {0LL, 1LL, 42LL, 1000000007LL}) {
    const Ciphertext c = kp_.pub.encrypt(Bigint(m), rng_);
    EXPECT_EQ(kp_.priv.decrypt(c), Bigint(m));
  }
}

TEST_F(PaillierTest, DecryptCrtMatchesStandard) {
  for (int i = 0; i < 20; ++i) {
    const Bigint m = Bigint::randomBelow(rng_, kp_.pub.n());
    const Ciphertext c = kp_.pub.encrypt(m, rng_);
    EXPECT_EQ(kp_.priv.decrypt(c), m);
    EXPECT_EQ(kp_.priv.decryptCrt(c), m);
  }
}

TEST_F(PaillierTest, MaxPlaintextRoundTrips) {
  const Bigint m = kp_.pub.maxPlaintext();
  const Ciphertext c = kp_.pub.encrypt(m, rng_);
  EXPECT_EQ(kp_.priv.decryptCrt(c), m);
}

TEST_F(PaillierTest, EncryptRejectsOutOfRange) {
  EXPECT_THROW(kp_.pub.encrypt(kp_.pub.n(), rng_), InternalError);
  EXPECT_THROW(kp_.pub.encrypt(Bigint(-1), rng_), InternalError);
}

TEST_F(PaillierTest, EncryptionIsProbabilistic) {
  const Ciphertext a = kp_.pub.encrypt(Bigint(5), rng_);
  const Ciphertext b = kp_.pub.encrypt(Bigint(5), rng_);
  EXPECT_NE(a.value, b.value);  // fresh randomness -> distinct ciphertexts
  EXPECT_EQ(kp_.priv.decrypt(a), kp_.priv.decrypt(b));
}

TEST_F(PaillierTest, HomomorphicAddition) {
  const Ciphertext a = kp_.pub.encrypt(Bigint(17), rng_);
  const Ciphertext b = kp_.pub.encrypt(Bigint(25), rng_);
  EXPECT_EQ(kp_.priv.decrypt(kp_.pub.addCipher(a, b)), Bigint(42));
}

TEST_F(PaillierTest, HomomorphicAdditionWrapsModN) {
  const Bigint nearMax = kp_.pub.maxPlaintext();
  const Ciphertext a = kp_.pub.encrypt(nearMax, rng_);
  const Ciphertext b = kp_.pub.encrypt(Bigint(5), rng_);
  // (n-1) + 5 = n + 4 ≡ 4 (mod n)
  EXPECT_EQ(kp_.priv.decrypt(kp_.pub.addCipher(a, b)), Bigint(4));
}

TEST_F(PaillierTest, ScalarMultiplication) {
  const Ciphertext c = kp_.pub.encrypt(Bigint(6), rng_);
  EXPECT_EQ(kp_.priv.decrypt(kp_.pub.mulPlain(c, Bigint(7))), Bigint(42));
  // E(m)^0 = E(0).
  EXPECT_EQ(kp_.priv.decrypt(kp_.pub.mulPlain(c, Bigint(0))), Bigint(0));
}

TEST_F(PaillierTest, AddPlain) {
  const Ciphertext c = kp_.pub.encrypt(Bigint(40), rng_);
  EXPECT_EQ(kp_.priv.decrypt(kp_.pub.addPlain(c, Bigint(2))), Bigint(42));
}

TEST_F(PaillierTest, MulPlainOfZeroStaysZero) {
  // The core mechanism of the paper's buffers: c_i = 0 makes every
  // contribution E(c_i·f) an encryption of zero, leaving buffers unchanged.
  const Ciphertext zero = kp_.pub.encryptZero(rng_);
  const Ciphertext scaled = kp_.pub.mulPlain(zero, Bigint(123456));
  EXPECT_EQ(kp_.priv.decrypt(scaled), Bigint(0));
}

TEST_F(PaillierTest, HomomorphicLinearCombination) {
  // D(E(a)^x · E(b)^y) = ax + by — the data-buffer update primitive.
  const Ciphertext ea = kp_.pub.encrypt(Bigint(3), rng_);
  const Ciphertext eb = kp_.pub.encrypt(Bigint(5), rng_);
  const Ciphertext combo = kp_.pub.addCipher(kp_.pub.mulPlain(ea, Bigint(10)),
                                             kp_.pub.mulPlain(eb, Bigint(4)));
  EXPECT_EQ(kp_.priv.decrypt(combo), Bigint(50));
}

TEST_F(PaillierTest, ValidCiphertextChecks) {
  const Ciphertext c = kp_.pub.encrypt(Bigint(1), rng_);
  EXPECT_TRUE(kp_.pub.validCiphertext(c));
  EXPECT_FALSE(kp_.pub.validCiphertext(Ciphertext{kp_.pub.nSquared()}));
  EXPECT_FALSE(kp_.pub.validCiphertext(Ciphertext{Bigint(-1)}));
}

TEST_F(PaillierTest, PublicKeySerializationRoundTrip) {
  ByteWriter w;
  kp_.pub.serialize(w);
  ByteReader r(w.data());
  const PaillierPublicKey restored = PaillierPublicKey::deserialize(r);
  EXPECT_EQ(restored.n(), kp_.pub.n());
  EXPECT_EQ(restored.nSquared(), kp_.pub.nSquared());
  // The restored key must produce ciphertexts the private key can open.
  Rng rng(5);
  const Ciphertext c = restored.encrypt(Bigint(99), rng);
  EXPECT_EQ(kp_.priv.decrypt(c), Bigint(99));
}

TEST_F(PaillierTest, PrivateKeySerializationRoundTrip) {
  ByteWriter w;
  kp_.priv.serialize(w);
  ByteReader r(w.data());
  const auto restored = PaillierPrivateKey::deserialize(r);
  const auto ct = kp_.pub.encrypt(Bigint(321), rng_);
  EXPECT_EQ(restored.decrypt(ct), Bigint(321));
  EXPECT_EQ(restored.decryptCrt(ct), Bigint(321));
  EXPECT_EQ(restored.publicKey().n(), kp_.pub.n());
}

TEST(PaillierKeyGen, DeterministicFromSeed) {
  Rng a(77), b(77);
  const auto ka = generateKeyPair(128, a);
  const auto kb = generateKeyPair(128, b);
  EXPECT_EQ(ka.pub.n(), kb.pub.n());
}

TEST(PaillierKeyGen, DistinctSeedsDistinctKeys) {
  Rng a(1), b(2);
  EXPECT_NE(generateKeyPair(128, a).pub.n(), generateKeyPair(128, b).pub.n());
}

TEST(PaillierKeyGen, RejectsTinyModulus) {
  Rng rng(1);
  EXPECT_THROW(generateKeyPair(32, rng), InternalError);
}

class PaillierKeySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PaillierKeySizes, RoundTripAcrossKeySizes) {
  Rng rng(GetParam());
  const auto kp = generateKeyPair(GetParam(), rng);
  EXPECT_EQ(kp.pub.modulusBits(), GetParam());
  const Bigint m = Bigint::randomBelow(rng, kp.pub.n());
  EXPECT_EQ(kp.priv.decryptCrt(kp.pub.encrypt(m, rng)), m);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PaillierKeySizes,
                         ::testing::Values(64, 128, 256, 512, 1024));

}  // namespace
}  // namespace dpss::crypto
