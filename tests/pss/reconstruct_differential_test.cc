// Differential test of the client's lazy envelope opening (§III-C,
// Steps 3–4). Reconstructor::reconstruct zero-tests Bloom slots on one
// CRT half, only as the scan reaches them, and decrypts the c and data
// buffers only when a candidate survives. The reference below is the
// eager opening it replaced: decryptCrtBatch over every slot, the Bloom
// scan on fully decrypted values, then the same overdetermined solve.
// Over ≥100 seeded batches — small l_I, so Bloom false positives and
// overflows both occur — the two must agree on the outcome: the same
// BufferOverflow, the same singular system, or the same recovered
// (index, c, payload) list, which must also be exactly the ground truth.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "crypto/prf.h"
#include "pss/blocking.h"
#include "pss/linear_solver.h"
#include "pss/plaintext_access.h"
#include "pss/reconstruct.h"
#include "pss/searcher.h"
#include "pss/session.h"

namespace dpss::pss {
namespace {

using crypto::Bigint;

constexpr std::uint64_t kSeeds = 120;  // >= 100
constexpr std::size_t kBlocks = 2;

struct Opened {
  enum class Outcome { kRecovered, kOverflow, kSingular } outcome;
  std::size_t candidates = 0;
  std::vector<RecoveredSegment> segments;
};

/// The eager reference: decrypt all l_I + l_F·(s+1) slots, Bloom-scan the
/// decrypted index buffer, solve for the candidates.
Opened referenceOpen(const crypto::PaillierPrivateKey& priv,
                     const SearchResultEnvelope& env) {
  const Bigint& n = priv.publicKey().n();
  const std::size_t lf = env.params.bufferLength;
  const std::size_t li = env.buffers.indexBufferLength();
  const std::size_t blocks = env.buffers.blocksPerSegment();
  std::vector<crypto::Ciphertext> slots;
  for (std::size_t s = 0; s < li; ++s) slots.push_back(env.buffers.match(s));
  for (std::size_t j = 0; j < lf; ++j) slots.push_back(env.buffers.c(j));
  for (std::size_t j = 0; j < lf; ++j) {
    for (std::size_t b = 0; b < blocks; ++b) {
      slots.push_back(env.buffers.data(j, b));
    }
  }
  const std::vector<Bigint> plain = priv.decryptCrtBatch(slots);

  const crypto::BloomHashFamily bloom(env.bloomSeed, env.params.bloomHashes,
                                      env.params.indexBufferLength);
  std::vector<std::uint64_t> candidates;
  for (std::uint64_t i = env.firstIndex;
       i < env.firstIndex + env.segmentsProcessed; ++i) {
    bool allSet = true;
    for (std::size_t t = 0; t < bloom.k(); ++t) {
      allSet = allSet && !plain[bloom.hash(t, i)].isZero();
    }
    if (allSet) candidates.push_back(i);
  }
  Opened out{Opened::Outcome::kRecovered, candidates.size(), {}};
  if (candidates.size() > lf) {
    out.outcome = Opened::Outcome::kOverflow;
    return out;
  }
  if (candidates.empty()) return out;

  const std::size_t k = candidates.size();
  const crypto::BitPrf g(env.prfSeed);
  ModMatrix coeff(lf, k, n);
  ModMatrix rhs(lf, 1 + blocks, n);
  for (std::size_t j = 0; j < lf; ++j) {
    for (std::size_t r = 0; r < k; ++r) {
      coeff.at(j, r) = Bigint(g(candidates[r], j) ? 1 : 0);
    }
    rhs.at(j, 0) = plain[li + j];
    for (std::size_t b = 0; b < blocks; ++b) {
      rhs.at(j, 1 + b) = plain[li + lf + j * blocks + b];
    }
  }
  ModMatrix sol(k, 1 + blocks, n);
  try {
    sol = solveConsistentSystem(coeff, rhs);
  } catch (const CryptoError&) {
    out.outcome = Opened::Outcome::kSingular;
    return out;
  }
  const BlockCodec codec(
      BlockCodec::maxBlockBytesFor(priv.publicKey().modulusBits()));
  for (std::size_t r = 0; r < k; ++r) {
    const Bigint& c = sol.at(r, 0);
    if (c.isZero()) continue;  // Bloom false positive
    const Bigint cInv = Bigint::invert(c, n);
    std::vector<Bigint> f;
    for (std::size_t b = 0; b < blocks; ++b) {
      f.push_back((sol.at(r, 1 + b) * cInv) % n);
    }
    out.segments.push_back(
        RecoveredSegment{candidates[r], c.toUint64(), codec.decode(f)});
  }
  return out;
}

TEST(ReconstructDifferential, LazyOpeningMatchesEagerReference) {
  const Dictionary dict({"hit", "hot", "calm", "noise"});
  const SearchParams params{
      .bufferLength = 8, .indexBufferLength = 24, .bloomHashes = 3};
  PrivateSearchClient client(dict, params, 128, /*seed=*/31337);
  const EncryptedQuery query = client.makeQuery({"hit", "hot"});
  const Reconstructor lazy(client.privateKey());

  std::size_t overflows = 0;
  std::size_t withFalsePositives = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(7000 + seed);
    const std::size_t t = params.bufferLength + rng.below(24);
    const std::uint64_t first = rng.below(1000);
    std::vector<std::string> docs;
    struct Truth {
      std::uint64_t index, cValue;
      std::string payload;
    };
    std::vector<Truth> truth;
    for (std::size_t i = 0; i < t; ++i) {
      const std::uint64_t roll = rng.below(10);
      std::string doc = roll == 0   ? "hit hot " + std::to_string(i)
                        : roll == 1 ? "hit " + std::to_string(i)
                                    : "calm noise " + std::to_string(i);
      if (roll <= 1) truth.push_back({first + i, roll == 0 ? 2u : 1u, doc});
      docs.push_back(std::move(doc));
    }
    StreamSearcher searcher(dict, query, kBlocks, rng);
    for (std::size_t i = 0; i < t; ++i) {
      searcher.processSegment(first + i, docs[i]);
    }
    const SearchResultEnvelope env = searcher.finish();

    const Opened ref = referenceOpen(client.privateKey(), env);
    switch (ref.outcome) {
      case Opened::Outcome::kOverflow:
        ++overflows;
        EXPECT_THROW((void)lazy.reconstruct(env), BufferOverflow)
            << "seed " << seed;
        continue;
      case Opened::Outcome::kSingular:
        EXPECT_THROW((void)lazy.reconstruct(env), CryptoError)
            << "seed " << seed;
        continue;
      case Opened::Outcome::kRecovered:
        break;
    }
    if (ref.candidates > truth.size()) ++withFalsePositives;
    const std::vector<RecoveredSegment> got = lazy.reconstruct(env);
    EXPECT_EQ(got, ref.segments) << "seed " << seed;
    ASSERT_EQ(got.size(), truth.size()) << "seed " << seed;
    for (std::size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got[r].index, truth[r].index) << "seed " << seed;
      EXPECT_EQ(got[r].cValue, truth[r].cValue) << "seed " << seed;
      EXPECT_EQ(test::plaintext(got[r].payload), truth[r].payload)
          << "seed " << seed;
    }
  }
  // The sweep must reach both paths the lazy scan changes.
  EXPECT_GT(overflows, 0u);
  EXPECT_GT(withFalsePositives, 0u);
}

}  // namespace
}  // namespace dpss::pss
