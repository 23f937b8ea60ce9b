// Distributed private stream search through the broker (§III-C over the
// §III-A architecture): document slices on historical nodes, encrypted
// query scattered by the broker, per-slice envelopes opened by the client.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cluster/cluster.h"
#include "cluster/transport.h"
#include "common/bytes.h"
#include "common/error.h"
#include "pss/session.h"

namespace dpss::cluster {
namespace {

const std::vector<std::string> kDict = {"breach", "leak",  "malware",
                                        "normal", "virus", "worm"};

class PssClusterTest : public ::testing::Test {
 protected:
  PssClusterTest()
      : clock_(1'400'000'000'000),
        dict_(kDict),
        params_{.bufferLength = 8, .indexBufferLength = 256, .bloomHashes = 5},
        client_(dict_, params_, 128, 4242) {}

  /// Loads `docs` split contiguously across the cluster's historical
  /// nodes under the name "security-log".
  void loadDocs(Cluster& cluster, const std::vector<std::string>& docs) {
    const std::size_t nodes = cluster.historicalCount();
    const std::size_t per = (docs.size() + nodes - 1) / nodes;
    std::size_t base = 0;
    for (std::size_t i = 0; i < nodes && base < docs.size(); ++i) {
      const std::size_t count = std::min(per, docs.size() - base);
      cluster.historical(i).loadDocuments(
          "security-log", base,
          {docs.begin() + static_cast<std::ptrdiff_t>(base),
           docs.begin() + static_cast<std::ptrdiff_t>(base + count)});
      base += count;
    }
  }

  std::vector<pss::RecoveredSegment> search(
      Cluster& cluster, const std::set<std::string>& keywords) {
    // Client-side retry on the (rare) singular system, re-scattering the
    // whole batch — the protocol-level behaviour.
    for (int attempt = 0; attempt < 5; ++attempt) {
      const auto query = client_.makeQuery(keywords);
      const auto envelopes =
          cluster.broker().privateSearch("security-log", dict_, query);
      try {
        std::vector<pss::RecoveredSegment> all;
        for (const auto& env : envelopes) {
          const auto part = client_.open(env);
          all.insert(all.end(), part.begin(), part.end());
        }
        return all;
      } catch (const CryptoError&) {
        continue;
      }
    }
    throw CryptoError("no solvable batch in 5 attempts");
  }

  /// As search(), but opens through openDocuments so packed envelopes
  /// come back per-document; results are sorted by document index.
  std::vector<pss::RecoveredSegment> searchDocuments(
      Cluster& cluster, const std::set<std::string>& keywords) {
    for (int attempt = 0; attempt < 5; ++attempt) {
      const auto query = client_.makeQuery(keywords);
      const auto envelopes =
          cluster.broker().privateSearch("security-log", dict_, query);
      try {
        std::vector<pss::RecoveredSegment> all;
        for (const auto& env : envelopes) {
          const auto part = client_.openDocuments(env, keywords);
          all.insert(all.end(), part.begin(), part.end());
        }
        std::sort(all.begin(), all.end(),
                  [](const pss::RecoveredSegment& a,
                     const pss::RecoveredSegment& b) {
                    return a.index < b.index;
                  });
        return all;
      } catch (const CryptoError&) {
        continue;
      }
    }
    throw CryptoError("no solvable batch in 5 attempts");
  }

  ManualClock clock_;
  pss::Dictionary dict_;
  pss::SearchParams params_;
  pss::PrivateSearchClient client_;
};

std::vector<std::string> makeDocs(std::size_t n) {
  std::vector<std::string> docs;
  for (std::size_t i = 0; i < n; ++i) {
    docs.push_back("routine log line number " + std::to_string(i));
  }
  return docs;
}

TEST_F(PssClusterTest, FindsMatchesAcrossNodes) {
  Cluster cluster(clock_, {.historicalNodes = 3});
  auto docs = makeDocs(60);
  docs[5] = "virus detected on host five";
  docs[25] = "worm spreading laterally";     // second node's slice
  docs[55] = "virus and worm on host nine";  // third node's slice
  loadDocs(cluster, docs);

  const auto results = search(cluster, {"virus", "worm"});
  std::set<std::uint64_t> indices;
  for (const auto& r : results) indices.insert(r.index);
  EXPECT_EQ(indices, (std::set<std::uint64_t>{5, 25, 55}));
  for (const auto& r : results) {
    EXPECT_EQ(r.payload, docs[r.index]);
  }
}

TEST_F(PssClusterTest, CValuesSurviveDistribution) {
  Cluster cluster(clock_, {.historicalNodes = 2});
  auto docs = makeDocs(40);
  docs[3] = "malware found";
  docs[30] = "malware breach leak combo";
  loadDocs(cluster, docs);
  const auto results = search(cluster, {"malware", "breach", "leak"});
  ASSERT_EQ(results.size(), 2u);
  std::map<std::uint64_t, std::uint64_t> cByIndex;
  for (const auto& r : results) cByIndex[r.index] = r.cValue;
  EXPECT_EQ(cByIndex[3], 1u);
  EXPECT_EQ(cByIndex[30], 3u);
}

TEST_F(PssClusterTest, NoMatchesAnywhere) {
  Cluster cluster(clock_, {.historicalNodes = 2});
  loadDocs(cluster, makeDocs(40));
  EXPECT_TRUE(search(cluster, {"breach"}).empty());
}

TEST_F(PssClusterTest, UnknownDocSourceThrows) {
  Cluster cluster(clock_, {.historicalNodes = 1});
  const auto query = client_.makeQuery({"virus"});
  EXPECT_THROW(cluster.broker().privateSearch("nope", dict_, query),
               NotFound);
}

TEST_F(PssClusterTest, ForgedDictionarySizeIsCorruptData) {
  // A slice-search body declaring 2^62 dictionary words must be refused
  // as corrupt before the historical sizes anything by it.
  Cluster cluster(clock_, {.historicalNodes = 1});
  loadDocs(cluster, makeDocs(8));
  ByteWriter w;
  w.u8(rpc::kPssSearch);
  w.str("security-log");
  w.varint(std::uint64_t{1} << 62);
  w.str("breach");
  EXPECT_THROW(
      cluster.transport().call(cluster.historical(0).name(), w.take()),
      CorruptData);
}

TEST_F(PssClusterTest, EnvelopeCountMatchesSliceHolders) {
  Cluster cluster(clock_, {.historicalNodes = 3});
  loadDocs(cluster, makeDocs(48));
  const auto query = client_.makeQuery({"virus"});
  const auto envelopes =
      cluster.broker().privateSearch("security-log", dict_, query);
  EXPECT_EQ(envelopes.size(), 3u);
  std::uint64_t total = 0;
  for (const auto& env : envelopes) total += env.segmentsProcessed;
  EXPECT_EQ(total, 48u);
}

TEST_F(PssClusterTest, EachSliceSearchArmsItsBuffersOnce) {
  // A kPssSearch slice draws one fresh E(0) per buffer slot and no more:
  // the searcher dies with the request, so arming a next batch would be
  // paid for and never read.
  Cluster cluster(clock_, {.historicalNodes = 2});
  loadDocs(cluster, makeDocs(40));
  const auto encrypts = [&](std::size_t node) {
    return cluster.historical(node).metrics().snapshot().counterValue(
        "paillier.encrypt.count");
  };
  const std::uint64_t before = encrypts(0) + encrypts(1);
  const auto query = client_.makeQuery({"virus"});
  const auto envelopes =
      cluster.broker().privateSearch("security-log", dict_, query);
  ASSERT_EQ(envelopes.size(), 2u);
  std::uint64_t slots = 0;
  for (const auto& env : envelopes) {
    slots += params_.bufferLength * env.buffers.blocksPerSegment() +
             params_.bufferLength + params_.indexBufferLength;
  }
  EXPECT_EQ(encrypts(0) + encrypts(1) - before, slots);
}

TEST_F(PssClusterTest, PackedClusterSearchMatchesUnpacked) {
  // The broker's pssPackFactor makes every historical node fold groups of
  // 3 documents; envelopes advertise the factor and openDocuments splits
  // them back. Results must equal the unpacked run document-for-document.
  auto docs = makeDocs(90);
  docs[5] = "virus detected on host five";
  docs[40] = "worm spreading laterally";
  docs[41] = "virus and worm combo";  // same pack group as 40
  docs[77] = "worm at the tail";

  Cluster unpacked(clock_, {.historicalNodes = 2});
  loadDocs(unpacked, docs);
  const auto plain = searchDocuments(unpacked, {"virus", "worm"});

  Cluster packed(clock_, {.historicalNodes = 2, .pssPackFactor = 3});
  loadDocs(packed, docs);
  const auto split = searchDocuments(packed, {"virus", "worm"});

  ASSERT_EQ(split.size(), plain.size());
  ASSERT_EQ(split.size(), 4u);
  for (std::size_t i = 0; i < split.size(); ++i) {
    EXPECT_EQ(split[i].index, plain[i].index);
    EXPECT_EQ(split[i].cValue, plain[i].cValue);
    EXPECT_EQ(split[i].payload, plain[i].payload);
  }
  for (const auto& r : split) EXPECT_EQ(r.payload, docs[r.index]);
}

TEST_F(PssClusterTest, BrokerSeesOnlyCiphertexts) {
  // The scattered request and gathered envelopes contain only ciphertext
  // material; decrypting any c-buffer slot requires the client key. We
  // verify the envelopes decrypt to sensible values with the right key —
  // and that a *different* key cannot (wrong-key decryption garbles).
  Cluster cluster(clock_, {.historicalNodes = 1});
  auto docs = makeDocs(20);
  docs[7] = "virus alpha";
  loadDocs(cluster, docs);
  const auto query = client_.makeQuery({"virus"});
  const auto envelopes =
      cluster.broker().privateSearch("security-log", dict_, query);
  ASSERT_EQ(envelopes.size(), 1u);

  pss::PrivateSearchClient other(dict_, params_, 128, 999);
  bool differs = false;
  try {
    const auto wrong = other.open(envelopes[0]);
    const auto right = client_.open(envelopes[0]);
    differs = (wrong != right);
  } catch (const Error&) {
    differs = true;  // wrong key typically fails reconstruction outright
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace dpss::cluster
