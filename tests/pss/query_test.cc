#include "pss/query.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace dpss::pss {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  QueryTest()
      : dict_({"apple", "banana", "cherry", "date"}),
        rng_(42),
        kp_(crypto::generateKeyPair(128, rng_)) {}

  Dictionary dict_;
  Rng rng_;
  crypto::PaillierKeyPair kp_;
  SearchParams params_;
};

TEST_F(QueryTest, EntriesDecryptToIndicators) {
  const auto q = buildQuery(dict_, {"banana", "date"}, kp_.pub, params_, rng_);
  ASSERT_EQ(q.dictionarySize(), 4u);
  EXPECT_EQ(kp_.priv.decrypt(q.entry(0)), crypto::Bigint(0));  // apple
  EXPECT_EQ(kp_.priv.decrypt(q.entry(1)), crypto::Bigint(1));  // banana
  EXPECT_EQ(kp_.priv.decrypt(q.entry(2)), crypto::Bigint(0));  // cherry
  EXPECT_EQ(kp_.priv.decrypt(q.entry(3)), crypto::Bigint(1));  // date
}

TEST_F(QueryTest, UnknownKeywordRejected) {
  EXPECT_THROW(buildQuery(dict_, {"kiwi"}, kp_.pub, params_, rng_),
               InvalidArgument);
}

TEST_F(QueryTest, EmptyKeywordSetAllowed) {
  // A query for nothing is valid and indistinguishable from any other.
  const auto q = buildQuery(dict_, {}, kp_.pub, params_, rng_);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(kp_.priv.decrypt(q.entry(i)), crypto::Bigint(0));
  }
}

TEST_F(QueryTest, CiphertextsDoNotRevealIndicators) {
  // Zero and one entries must be fresh probabilistic encryptions: two
  // queries for the same K give entirely different ciphertexts.
  const auto q1 = buildQuery(dict_, {"apple"}, kp_.pub, params_, rng_);
  const auto q2 = buildQuery(dict_, {"apple"}, kp_.pub, params_, rng_);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NE(q1.entry(i).value, q2.entry(i).value);
  }
}

TEST_F(QueryTest, SerializationRoundTrip) {
  const auto q = buildQuery(dict_, {"cherry"}, kp_.pub, params_, rng_);
  ByteWriter w;
  q.serialize(w);
  ByteReader r(w.data());
  const auto restored = EncryptedQuery::deserialize(r);
  EXPECT_EQ(restored.dictionarySize(), q.dictionarySize());
  EXPECT_EQ(restored.publicKey().n(), kp_.pub.n());
  EXPECT_EQ(restored.params().bufferLength, params_.bufferLength);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(kp_.priv.decrypt(restored.entry(i)),
              kp_.priv.decrypt(q.entry(i)));
  }
}

TEST_F(QueryTest, ForgedEntryCountIsCorruptData) {
  // A query declaring 2^62 entries must be refused before anything is
  // sized by the count.
  ByteWriter w;
  kp_.pub.serialize(w);
  params_.serialize(w);
  w.varint(std::uint64_t{1} << 62);
  w.str("x");
  ByteReader r(w.data());
  EXPECT_THROW(EncryptedQuery::deserialize(r), CorruptData);
}

TEST(SearchParams, OptimalBloomHashes) {
  // k = floor(l_I/m · ln 2): l_I = 1000, m = 100 -> floor(6.93) = 6.
  EXPECT_EQ(SearchParams::optimalBloomHashes(1000, 100), 6u);
  // Degenerate cases floor to at least 1.
  EXPECT_EQ(SearchParams::optimalBloomHashes(10, 100), 1u);
}

TEST(SearchParams, ValidateRejectsZeroes) {
  SearchParams p;
  p.bufferLength = 0;
  EXPECT_THROW(p.validate(), InternalError);
}

TEST(SearchParams, SerializationRoundTrip) {
  SearchParams p;
  p.bufferLength = 17;
  p.indexBufferLength = 333;
  p.bloomHashes = 4;
  ByteWriter w;
  p.serialize(w);
  ByteReader r(w.data());
  const auto restored = SearchParams::deserialize(r);
  EXPECT_EQ(restored.bufferLength, 17u);
  EXPECT_EQ(restored.indexBufferLength, 333u);
  EXPECT_EQ(restored.bloomHashes, 4u);
}

}  // namespace
}  // namespace dpss::pss
