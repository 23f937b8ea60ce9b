// Differential crypto harness: every fast-path kernel must produce
// byte-identical results to its naive sibling across ≥100-seed property
// sweeps. The pairs under test:
//
//   Bigint::powm (GMP)                           vs  Bigint::powmNaive
//   PaillierPublicKey::encryptWithR (g = n+1)    vs  encryptGenericWithR
//   PaillierPrivateKey::encrypt (CRT halves)     vs  PaillierPublicKey::encrypt
//   PaillierPrivateKey::decryptCrt / CrtBatch    vs  decrypt
//   PaillierPrivateKey::isZeroModP               vs  decryptCrt(c).isZero()
//   packPayloads / unpackPayloads                vs  identity
//   runPrivateSearchPacked                       vs  runPrivateSearch
//
// "Byte-identical" is literal: results are compared via toBytes(), not
// just numerically, so serialization-visible drift fails too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/bigint.h"
#include "crypto/paillier.h"
#include "pss/blocking.h"
#include "pss/session.h"

namespace dpss::crypto {
namespace {

constexpr std::uint64_t kSeeds = 128;  // sweeps per property, >= 100

// One shared small key pair: key generation dominates runtime, the
// properties only need a valid key, and every sweep varies plaintexts
// and randomizers per seed.
const PaillierKeyPair& sharedKey() {
  static const PaillierKeyPair kp = [] {
    Rng rng(0xd1ffe7e57);
    return generateKeyPair(128, rng);
  }();
  return kp;
}

TEST(ModexpDifferential, GmpMatchesNaive) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed);
    // Mix modulus sizes and parities; m = 1 and even moduli are legal.
    const std::size_t modBits = 16 + rng.below(240);
    const Bigint m = Bigint::randomBits(rng, modBits);
    const Bigint base = Bigint::randomBelow(rng, m + Bigint(7));  // may be >= m
    const Bigint exp = Bigint::randomBits(rng, 1 + rng.below(200));
    EXPECT_EQ(Bigint::powm(base, exp, m).toBytes(),
              Bigint::powmNaive(base, exp, m).toBytes())
        << "seed " << seed;
  }
}

TEST(ModexpDifferential, EdgeCases) {
  const Bigint m("982451653");
  const std::int64_t cases[][3] = {{0, 0, 1}, {0, 5, 0}, {7, 0, 1}, {7, 1, 7}};
  for (const auto& [base, exp, want] : cases) {
    EXPECT_EQ(Bigint::powm(base, exp, m), Bigint(want));
    EXPECT_EQ(Bigint::powmNaive(base, exp, m), Bigint(want));
  }
  // m == 1: everything is 0.
  EXPECT_EQ(Bigint::powm(Bigint(7), Bigint(9), Bigint(1)), Bigint(0));
  EXPECT_EQ(Bigint::powmNaive(Bigint(7), Bigint(9), Bigint(1)), Bigint(0));
}

TEST(PaillierDifferential, FastEncryptMatchesGenericReference) {
  const auto& kp = sharedKey();
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(2000 + seed);
    const Bigint m = Bigint::randomBelow(rng, kp.pub.n());
    const Bigint r = kp.pub.drawRandomizer(rng);
    const Ciphertext fast = kp.pub.encryptWithR(m, r);
    const Ciphertext naive = kp.pub.encryptGenericWithR(m, r);
    EXPECT_EQ(fast.value.toBytes(), naive.value.toBytes()) << "seed " << seed;
    EXPECT_EQ(kp.priv.decrypt(fast), m);
  }
}

TEST(PaillierDifferential, SameRngSeedSameCiphertextAcrossPaths) {
  // encrypt and encryptGeneric share drawRandomizer, so equal Rng seeds
  // must yield equal ciphertexts across the fast/naive pair.
  const auto& kp = sharedKey();
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng seedRng(3000 + seed);
    const Bigint m = Bigint::randomBelow(seedRng, kp.pub.n());
    Rng a(4000 + seed), b(4000 + seed);
    EXPECT_EQ(kp.pub.encrypt(m, a).value.toBytes(),
              kp.pub.encryptGeneric(m, b).value.toBytes())
        << "seed " << seed;
  }
}

TEST(PaillierDifferential, CrtEncryptMatchesPublicEncrypt) {
  // Same Rng state ⇒ same r ⇒ byte-identical ciphertext, and both paths
  // leave the Rng in the same state. Three key sizes; m = 0, 1 and a
  // random plaintext below n.
  for (const std::size_t bits : {128u, 256u, 512u}) {
    Rng keyRng(0xc47 + bits);
    const PaillierKeyPair kp = generateKeyPair(bits, keyRng);
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      Rng seedRng(7000 + seed);
      const Bigint ms[] = {Bigint(0), Bigint(1),
                           Bigint::randomBelow(seedRng, kp.pub.n())};
      for (const Bigint& m : ms) {
        Rng a(8000 + seed), b(8000 + seed);
        EXPECT_EQ(kp.priv.encrypt(m, a).value.toBytes(),
                  kp.pub.encrypt(m, b).value.toBytes())
            << bits << "-bit key, seed " << seed;
        EXPECT_EQ(a.next(), b.next()) << bits << "-bit key, seed " << seed;
      }
    }
  }
}

TEST(PaillierDifferential, DecryptCrtAndBatchMatchDecrypt) {
  const auto& kp = sharedKey();
  std::vector<Ciphertext> cts;
  std::vector<Bigint> ms;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(5000 + seed);
    ms.push_back(Bigint::randomBelow(rng, kp.pub.n()));
    cts.push_back(kp.pub.encrypt(ms.back(), rng));
  }
  const std::vector<Bigint> batch = kp.priv.decryptCrtBatch(cts);
  ASSERT_EQ(batch.size(), cts.size());
  for (std::size_t i = 0; i < cts.size(); ++i) {
    const std::string want = kp.priv.decrypt(cts[i]).toBytes();
    EXPECT_EQ(kp.priv.decryptCrt(cts[i]).toBytes(), want) << "seed " << i;
    EXPECT_EQ(batch[i].toBytes(), want) << "seed " << i;
    EXPECT_EQ(batch[i].toBytes(), ms[i].toBytes()) << "seed " << i;
  }
}

TEST(PaillierDifferential, ZeroTestOnOneHalfMatchesDecryptCrt) {
  // Plaintexts in [0, 2^32) — the range of a Bloom slot — half of them
  // zero; also sums formed homomorphically, as the fold forms them.
  const auto& kp = sharedKey();
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(6000 + seed);
    const std::int64_t m =
        seed % 2 == 0 ? 0
                      : static_cast<std::int64_t>(
                            rng.below(std::uint64_t{1} << 32));
    const Ciphertext c = kp.pub.encrypt(Bigint(m), rng);
    EXPECT_EQ(kp.priv.isZeroModP(c), kp.priv.decryptCrt(c).isZero())
        << "seed " << seed;
    const Ciphertext sum = kp.pub.addCipher(c, kp.pub.encryptZero(rng));
    EXPECT_EQ(kp.priv.isZeroModP(sum), m == 0) << "seed " << seed;
  }
  Rng rng(6999);
  EXPECT_FALSE(kp.priv.isZeroModP(
      kp.pub.encrypt(Bigint((std::int64_t{1} << 32) - 1), rng)));
  EXPECT_FALSE(kp.priv.isZeroModP(kp.pub.encrypt(Bigint(1), rng)));
}

TEST(PaillierDifferential, ZeroTestPreconditionIsPlaintextBelowP) {
  // The zero test decides m ≡ 0 (mod p), so a plaintext of exactly p —
  // outside the precondition — reads as zero although it decrypts to p.
  // zeroTestCovers(t) is the bound callers check: t values below 2^32
  // stay below p iff t < p >> 32.
  Rng rng(0x5eed);
  const Bigint p = Bigint::randomPrime(rng, 64);
  Bigint q = Bigint::randomPrime(rng, 64);
  while (q == p) q = Bigint::randomPrime(rng, 64);
  const PaillierPrivateKey priv(p, q);
  const Ciphertext c = priv.publicKey().encrypt(p, rng);
  EXPECT_EQ(priv.decryptCrt(c), p);
  EXPECT_TRUE(priv.isZeroModP(c));

  const std::uint64_t limit =
      Bigint::divFloor(p, Bigint(std::int64_t{1} << 32)).toUint64();
  EXPECT_TRUE(priv.zeroTestCovers(limit - 1));
  EXPECT_FALSE(priv.zeroTestCovers(limit));
  // The smallest key PSS uses (128 bits, a 64-bit p) covers batches of
  // up to ~2^31 segments.
  EXPECT_TRUE(sharedKey().priv.zeroTestCovers(std::uint64_t{1} << 30));
}

TEST(PackingDifferential, PackUnpackRoundTrips) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(9000 + seed);
    const std::size_t count = rng.below(6);
    std::vector<std::string> docs;
    for (std::size_t i = 0; i < count; ++i) {
      std::string d;
      const std::size_t len = rng.below(64);
      for (std::size_t b = 0; b < len; ++b) {
        d.push_back(static_cast<char>(rng.below(256)));
      }
      docs.push_back(std::move(d));
    }
    std::vector<std::string_view> views(docs.begin(), docs.end());
    const std::vector<std::string> back =
        pss::unpackPayloads(pss::packPayloads(views));
    EXPECT_EQ(back, docs) << "seed " << seed;
  }
}

TEST(PackingDifferential, PackedSearchMatchesPerDocumentSearch) {
  // The end-to-end pair: packed sessions must recover the same documents
  // with the same per-document c-values as unpacked sessions. Heavier
  // than the kernel sweeps, so fewer seeds — the kernel equivalences
  // above carry the 100-seed burden.
  const std::vector<std::string> dictWords = {"apple", "breach", "cipher",
                                              "delta", "echo"};
  const pss::Dictionary dict(dictWords);
  const pss::SearchParams params{
      .bufferLength = 4, .indexBufferLength = 64, .bloomHashes = 3};
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    std::vector<std::string> stream;
    for (int i = 0; i < 24; ++i) {
      stream.push_back("routine entry " + std::to_string(i));
    }
    stream[3] = "breach in sector apple";
    stream[10] = "cipher breach confirmed";
    stream[17] = "apple only here";

    pss::PrivateSearchClient clientA(dict, params, 128, 500 + seed);
    Rng brokerA(600 + seed);
    const auto unpacked = runPrivateSearch(clientA, {"apple", "breach"},
                                           stream, 0, brokerA);

    pss::PrivateSearchClient clientB(dict, params, 128, 500 + seed);
    Rng brokerB(600 + seed);
    const auto packed = runPrivateSearchPacked(
        clientB, {"apple", "breach"}, stream, /*packFactor=*/3, 0, brokerB);

    ASSERT_EQ(packed.size(), unpacked.size()) << "seed " << seed;
    for (std::size_t i = 0; i < packed.size(); ++i) {
      EXPECT_EQ(packed[i].index, unpacked[i].index) << "seed " << seed;
      EXPECT_EQ(packed[i].cValue, unpacked[i].cValue) << "seed " << seed;
      EXPECT_EQ(packed[i].payload, unpacked[i].payload) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace dpss::crypto
