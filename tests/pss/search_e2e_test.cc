// End-to-end tests of the three-buffer private stream search: client
// query -> broker stream search -> client reconstruction (§III-C).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "crypto/prf.h"
#include "pss/reconstruct.h"
#include "pss/searcher.h"
#include "pss/session.h"

namespace dpss::pss {
namespace {

const std::vector<std::string> kDictWords = {
    "alert",  "breach", "cipher", "data",   "exploit", "firewall",
    "gateway", "hash",  "intrusion", "key", "leak",   "malware",
    "network", "override", "packet", "quarantine", "root", "scan",
    "trojan", "virus"};

class SearchE2E : public ::testing::Test {
 protected:
  SearchE2E()
      : dict_(kDictWords),
        params_{.bufferLength = 8, .indexBufferLength = 128, .bloomHashes = 4},
        client_(dict_, params_, 128, /*seed=*/2024),
        brokerRng_(777) {}

  std::vector<RecoveredSegment> run(const std::set<std::string>& keywords,
                                    const std::vector<std::string>& stream,
                                    std::size_t blocks = 0) {
    return runPrivateSearch(client_, keywords, stream, blocks, brokerRng_);
  }

  Dictionary dict_;
  SearchParams params_;
  PrivateSearchClient client_;
  Rng brokerRng_;
};

std::vector<std::string> makeStream() {
  // 20 segments; indices 3, 8, 15 match {virus, breach}.
  std::vector<std::string> stream;
  for (int i = 0; i < 20; ++i) {
    stream.push_back("routine traffic log entry number " + std::to_string(i));
  }
  stream[3] = "detected virus signature in packet";
  stream[8] = "possible data breach through gateway";
  stream[15] = "virus and breach confirmed on root host";
  return stream;
}

TEST(SearchLoneCandidate, AllZeroRawPrfColumnStillReconstructs) {
  // Under the paper's raw g, a match at an index whose bits
  // g(i, 0..l_F-1) are all zero folds into no slot; as the envelope's
  // only candidate its one-column system is singular (CryptoError) and
  // the match is lost. BitPrf::column gives such an index one slot.
  const Dictionary dict(kDictWords);
  const SearchParams params{
      .bufferLength = 16, .indexBufferLength = 128, .bloomHashes = 4};
  PrivateSearchClient client(dict, params, 128, /*seed=*/31);
  const EncryptedQuery query = client.makeQuery({"breach"});
  const std::string match = "breach";
  const std::size_t blocks = blocksNeeded({match}, 128);
  constexpr std::uint64_t kBrokerSeed = 99;

  // The broker rng fixes g's seed: learn it from a throwaway batch.
  std::uint64_t prfSeed = 0;
  {
    Rng rng(kBrokerSeed);
    StreamSearcher probe(dict, query, blocks, rng);
    probe.processSegment(0, "routine");
    probe.padSegments(params.bufferLength);
    prfSeed = probe.finish().prfSeed;
  }
  const crypto::BitPrf g(prfSeed);
  const auto rawColumnEmpty = [&](std::uint64_t i) {
    for (std::size_t j = 0; j < params.bufferLength; ++j) {
      if (g(i, j)) return false;
    }
    return true;
  };
  std::uint64_t index = 0;
  while (!rawColumnEmpty(index)) ++index;  // ~2^16 tries

  Rng rng(kBrokerSeed);
  StreamSearcher searcher(dict, query, blocks, rng);
  searcher.processSegment(index, match);
  searcher.padSegments(params.bufferLength);
  const SearchResultEnvelope env = searcher.finish();
  ASSERT_EQ(env.prfSeed, prfSeed);

  const auto recovered = client.open(env);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].index, index);
  EXPECT_EQ(recovered[0].cValue, 1u);
  EXPECT_EQ(recovered[0].payload, match);
}

TEST_F(SearchE2E, PackedDocumentsRecoverIndividually) {
  // Ciphertext packing: 3 documents per plaintext group, but the results
  // still come back per-document with per-document indices, payloads and
  // c-values. Two of the matches share a group; one rides alone.
  std::vector<std::string> stream;
  for (int i = 0; i < 36; ++i) {
    stream.push_back("routine traffic entry " + std::to_string(i));
  }
  stream[4] = "detected virus signature";     // group 1
  stream[5] = "data breach via gateway";      // group 1 (same group)
  stream[20] = "virus and breach on root";    // group 6
  const auto results = runPrivateSearchPacked(client_, {"virus", "breach"},
                                              stream, /*packFactor=*/3, 0,
                                              brokerRng_);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].index, 4u);
  EXPECT_EQ(results[0].payload, stream[4]);
  EXPECT_EQ(results[0].cValue, 1u);
  EXPECT_EQ(results[1].index, 5u);
  EXPECT_EQ(results[1].payload, stream[5]);
  EXPECT_EQ(results[1].cValue, 1u);
  EXPECT_EQ(results[2].index, 20u);
  EXPECT_EQ(results[2].cValue, 2u);
}

TEST_F(SearchE2E, PackedRidersAreDropped) {
  // Non-matching documents sharing a group with a match must not leak
  // into the result set.
  std::vector<std::string> stream(30, "calm waters");
  stream[13] = "malware beacon";  // group 6 of pack factor 2 = docs 12, 13
  const auto results = runPrivateSearchPacked(client_, {"malware"}, stream,
                                              /*packFactor=*/2, 0,
                                              brokerRng_);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].index, 13u);
  EXPECT_EQ(results[0].payload, stream[13]);
}

TEST_F(SearchE2E, PackedBinaryPayloadsSurvive) {
  // The pack frame is length-delimited, so binary member payloads —
  // including bytes that look like varints — round-trip exactly.
  std::vector<std::string> stream(32, "plain");
  std::string binary = "virus";
  for (int i = 0; i < 16; ++i) binary.push_back(static_cast<char>(i % 7));
  stream[9] = binary;
  const auto results = runPrivateSearchPacked(client_, {"virus"}, stream,
                                              /*packFactor=*/4, 0,
                                              brokerRng_);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].index, 9u);
  EXPECT_EQ(results[0].payload, binary);
}

TEST_F(SearchE2E, RecoversExactlyTheMatchingSegments) {
  const auto stream = makeStream();
  const auto results = run({"virus", "breach"}, stream);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].index, 3u);
  EXPECT_EQ(results[0].payload, stream[3]);
  EXPECT_EQ(results[1].index, 8u);
  EXPECT_EQ(results[1].payload, stream[8]);
  EXPECT_EQ(results[2].index, 15u);
  EXPECT_EQ(results[2].payload, stream[15]);
}

TEST_F(SearchE2E, CValuesCountDistinctMatchedKeywords) {
  const auto stream = makeStream();
  const auto results = run({"virus", "breach"}, stream);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].cValue, 1u);  // virus only
  EXPECT_EQ(results[1].cValue, 1u);  // breach only
  EXPECT_EQ(results[2].cValue, 2u);  // both
}

TEST_F(SearchE2E, RepeatedKeywordCountsOnce) {
  std::vector<std::string> stream(10, "quiet");
  stream[4] = "virus virus virus everywhere virus";
  const auto results = run({"virus"}, stream);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].cValue, 1u);  // distinct words, not occurrences
}

TEST_F(SearchE2E, NoMatchesYieldsEmptyResult) {
  const auto results = run({"quarantine"}, makeStream());
  EXPECT_TRUE(results.empty());
}

TEST_F(SearchE2E, DisjunctionSemantics) {
  // K = {malware, gateway}: segment 8 contains "gateway" only.
  const auto stream = makeStream();
  const auto results = run({"malware", "gateway"}, stream);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].index, 8u);
}

TEST_F(SearchE2E, CaseInsensitiveMatching) {
  std::vector<std::string> stream(10, "nothing here");
  stream[2] = "VIRUS detected";
  const auto results = run({"virus"}, stream);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].index, 2u);
}

TEST_F(SearchE2E, MultiBlockPayloads) {
  // Payloads too large for one Z_n block exercise the blockwise path.
  std::vector<std::string> stream;
  for (int i = 0; i < 12; ++i) {
    stream.push_back("filler segment " + std::string(40, 'a' + (i % 26)));
  }
  stream[5] = "trojan hidden inside " + std::string(60, 'z') + " tail";
  const std::size_t blocks =
      BlockCodec(BlockCodec::maxBlockBytesFor(128)).blockCount(100);
  ASSERT_GT(blocks, 1u);
  const auto results = run({"trojan"}, stream, blocks);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].payload, stream[5]);
}

TEST_F(SearchE2E, BinaryPayloadSurvives) {
  std::vector<std::string> stream(10, "plain");
  std::string binary = "malware";
  for (int i = 0; i < 8; ++i) binary.push_back(static_cast<char>(i));
  stream[7] = binary;
  const auto results = run({"malware"}, stream, 2);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].payload, binary);
}

TEST_F(SearchE2E, OverflowIsDetectedNotSilent) {
  // More matches than l_F = 8 slots: reconstruction must throw
  // BufferOverflow rather than return wrong data.
  std::vector<std::string> stream;
  for (int i = 0; i < 20; ++i) stream.push_back("virus everywhere");
  EXPECT_THROW(run({"virus"}, stream), BufferOverflow);
}

TEST_F(SearchE2E, FillingBufferToCapacityStillWorks) {
  std::vector<std::string> stream(24, "calm");
  for (int i = 0; i < 7; ++i) stream[i * 3] = "scan alert " + std::to_string(i);
  const auto results = run({"scan"}, stream);
  EXPECT_EQ(results.size(), 7u);
}

TEST_F(SearchE2E, EnvelopeSerializationRoundTrip) {
  const auto stream = makeStream();
  const auto query = client_.makeQuery({"virus"});
  StreamSearcher searcher(dict_, query, blocksNeeded(stream, 128), brokerRng_);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    searcher.processSegment(i, stream[i]);
  }
  const auto env = searcher.finish();

  ByteWriter w;
  env.serialize(w);
  ByteReader r(w.data());
  const auto restored = SearchResultEnvelope::deserialize(r);

  const auto a = client_.open(env);
  const auto b = client_.open(restored);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 2u);
}

TEST_F(SearchE2E, ForgedBufferCountsAreCorruptData) {
  // Envelope buffers declaring more slots than bytes follow — a huge l_F,
  // a huge l_I, or an s whose l_F·(s+1) would wrap — are refused before
  // anything is sized by them.
  const auto forged = [](std::uint64_t s, std::uint64_t lf, std::uint64_t li) {
    ByteWriter w;
    w.varint(s);
    w.varint(lf);
    w.varint(li);
    for (int i = 0; i < 8; ++i) w.str("c");
    return w.take();
  };
  for (const auto& bytes : {forged(1, std::uint64_t{1} << 62, 0),
                            forged(1, 1, std::uint64_t{1} << 62),
                            forged(~std::uint64_t{0}, 2, 0)}) {
    ByteReader r(bytes);
    EXPECT_THROW(SearchBuffers::deserialize(r), CorruptData);
  }
  // Counts that exactly fit (2·(2+1) + 2 = 8 slots) decode.
  const std::string ok = forged(2, 2, 2);
  ByteReader r(ok);
  const SearchBuffers b = SearchBuffers::deserialize(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(b.bufferLength(), 2u);
  EXPECT_EQ(b.indexBufferLength(), 2u);
}

TEST_F(SearchE2E, PartitionedStreamReconstructsPerEnvelope) {
  // Distributed mode: two nodes each search half the stream with their own
  // buffers; both halves must process >= l_F segments, and the client
  // opens each envelope independently.
  std::vector<std::string> stream(32, "quiet water");
  stream[4] = "leak found in north pipeline";
  stream[20] = "second leak in south pipeline";
  const auto query = client_.makeQuery({"leak"});

  // A random 0/1 system is occasionally singular; like the protocol, each
  // node retries its batch with a fresh PRF seed until it solves.
  const std::size_t blocks = blocksNeeded(stream, 128);
  auto searchRange = [&](std::uint64_t seed, std::size_t lo, std::size_t hi) {
    for (;; ++seed) {
      Rng rng(seed);
      StreamSearcher node(dict_, query, blocks, rng);
      for (std::size_t i = lo; i < hi; ++i) node.processSegment(i, stream[i]);
      try {
        return client_.open(node.finish());
      } catch (const CryptoError&) {
        continue;
      }
    }
  };
  const auto ra = searchRange(1, 0, 16);
  const auto rb = searchRange(2, 16, 32);
  ASSERT_EQ(ra.size(), 1u);
  ASSERT_EQ(rb.size(), 1u);
  EXPECT_EQ(ra[0].index, 4u);
  EXPECT_EQ(rb[0].index, 20u);
  EXPECT_EQ(rb[0].payload, stream[20]);
}

TEST_F(SearchE2E, NonContiguousIndicesRejected) {
  const auto query = client_.makeQuery({"virus"});
  StreamSearcher searcher(dict_, query, 1, brokerRng_);
  searcher.processSegment(0, "a");
  EXPECT_THROW(searcher.processSegment(2, "b"), InternalError);
}

TEST_F(SearchE2E, SearcherResetsBetweenBatches) {
  const auto query = client_.makeQuery({"virus"});
  StreamSearcher searcher(dict_, query, 2, brokerRng_);
  std::vector<std::string> batch1(10, "calm");
  batch1[2] = "virus one";
  for (std::size_t i = 0; i < batch1.size(); ++i) {
    searcher.processSegment(i, batch1[i]);
  }
  const auto env1 = searcher.finish();
  searcher.rearm();

  std::vector<std::string> batch2(10, "calm");
  batch2[7] = "virus two";
  for (std::size_t i = 0; i < batch2.size(); ++i) {
    searcher.processSegment(i, batch2[i]);
  }
  const auto env2 = searcher.finish();

  const auto r1 = client_.open(env1);
  const auto r2 = client_.open(env2);
  ASSERT_EQ(r1.size(), 1u);
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_EQ(r1[0].payload, "virus one");
  EXPECT_EQ(r2[0].payload, "virus two");

  // rearm() drew fresh randomness for every slot: the two batches share
  // no slot ciphertext.
  const auto slotValues = [](const SearchResultEnvelope& env) {
    std::set<std::string> out;
    for (std::size_t j = 0; j < env.params.bufferLength; ++j) {
      out.insert(env.buffers.c(j).value.toString());
      for (std::size_t b = 0; b < env.buffers.blocksPerSegment(); ++b) {
        out.insert(env.buffers.data(j, b).value.toString());
      }
    }
    for (std::size_t j = 0; j < env.params.indexBufferLength; ++j) {
      out.insert(env.buffers.match(j).value.toString());
    }
    return out;
  };
  const auto s1 = slotValues(env1);
  for (const auto& v : slotValues(env2)) EXPECT_EQ(s1.count(v), 0u);
}

TEST_F(SearchE2E, FinishedSearcherRefusesWorkUntilRearmed) {
  const auto query = client_.makeQuery({"virus"});
  StreamSearcher searcher(dict_, query, 1, brokerRng_);
  searcher.processSegment(0, "virus");
  (void)searcher.finish();
  EXPECT_THROW(searcher.processSegment(1, "calm"), InternalError);
  EXPECT_THROW(searcher.padSegments(1), InternalError);
  EXPECT_THROW((void)searcher.finish(), InternalError);

  searcher.rearm();
  searcher.processSegment(5, "calm");
  searcher.padSegments(2);
  EXPECT_EQ(searcher.finish().segmentsProcessed, 3u);
}

TEST_F(SearchE2E, FreshlyArmedSlotsAreDistinctNonTrivialCiphertexts) {
  // Every initial slot is its own fresh E(0): a trivial 1 or a repeated
  // ciphertext would let the client, who knows the randomizers of its own
  // query entries, learn about documents that did not match.
  const auto query = client_.makeQuery({"virus"});
  StreamSearcher searcher(dict_, query, 3, brokerRng_);
  for (int batch = 0; batch < 2; ++batch) {
    if (batch > 0) searcher.rearm();
    const auto env = searcher.finish();
    std::set<std::string> seen;
    std::size_t slots = 0;
    const auto check = [&](const crypto::Ciphertext& ct) {
      ++slots;
      EXPECT_FALSE(ct.value.isOne());
      EXPECT_TRUE(seen.insert(ct.value.toString()).second);
    };
    for (std::size_t j = 0; j < env.params.bufferLength; ++j) {
      check(env.buffers.c(j));
      for (std::size_t b = 0; b < 3; ++b) check(env.buffers.data(j, b));
    }
    for (std::size_t j = 0; j < env.params.indexBufferLength; ++j) {
      check(env.buffers.match(j));
    }
    EXPECT_EQ(slots, params_.bufferLength * 4 + params_.indexBufferLength);
  }
}

TEST_F(SearchE2E, EmptyBatchYieldsNothing) {
  const auto query = client_.makeQuery({"virus"});
  StreamSearcher searcher(dict_, query, 1, brokerRng_);
  const auto env = searcher.finish();
  EXPECT_TRUE(client_.open(env).empty());
}

TEST_F(SearchE2E, BrokerLearnsNothingFromBuffers) {
  // Every buffer slot is a valid ciphertext regardless of match count —
  // a broker inspecting its own buffers sees only elements of Z*_{n²}.
  const auto stream = makeStream();
  const auto query = client_.makeQuery({"virus"});
  StreamSearcher searcher(dict_, query, blocksNeeded(stream, 128), brokerRng_);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    searcher.processSegment(i, stream[i]);
  }
  const auto env = searcher.finish();
  const auto& pub = client_.publicKey();
  for (std::size_t j = 0; j < env.params.bufferLength; ++j) {
    EXPECT_TRUE(pub.validCiphertext(env.buffers.c(j)));
    EXPECT_TRUE(pub.validCiphertext(env.buffers.data(j, 0)));
  }
  for (std::size_t j = 0; j < env.params.indexBufferLength; ++j) {
    EXPECT_TRUE(pub.validCiphertext(env.buffers.match(j)));
  }
}

class MatchDensity : public ::testing::TestWithParam<int> {};

TEST_P(MatchDensity, AllMatchCountsRecoverExactly) {
  // Property sweep: for every match count up to buffer capacity, the
  // scheme recovers exactly the matching set.
  const int matches = GetParam();
  Dictionary dict(kDictWords);
  SearchParams params{
      .bufferLength = 8, .indexBufferLength = 256, .bloomHashes = 5};
  PrivateSearchClient client(dict, params, 128, 9000 + matches);
  Rng brokerRng(31 * matches + 7);

  std::vector<std::string> stream(30, "still water");
  std::set<std::size_t> expect;
  for (int m = 0; m < matches; ++m) {
    const std::size_t pos = 1 + 3 * m;
    stream[pos] = "firewall breach at site " + std::to_string(m);
    expect.insert(pos);
  }
  const auto results =
      runPrivateSearch(client, {"firewall"}, stream, 0, brokerRng);
  std::set<std::size_t> got;
  for (const auto& r : results) got.insert(r.index);
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(Counts, MatchDensity, ::testing::Range(0, 9));

}  // namespace
}  // namespace dpss::pss
