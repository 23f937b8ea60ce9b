// Golden pins of the broker fold (§III-C, Step 2) and the standing
// subscription seal: the SHA-256 of the serialized envelopes for a fixed
// key, query and broker seed. Any change to the bytes the fold or the
// seal produces — slot selection, blockwise E(c)^f, Bloom update, buffer
// arming and the order it draws the broker rng in, envelope layout —
// fails here byte-for-byte, which the end-to-end search tests (which
// only check what the client recovers) cannot see. Regenerate only for
// an intentional format change, and say why in the commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "pss/dictionary.h"
#include "pss/query.h"
#include "pss/searcher.h"
#include "pss/session.h"
#include "pss/sha256.h"
#include "pss/subscription.h"

namespace dpss::pss {
namespace {

using test::sha256Hex;

constexpr char kEnvelopeSha256[] =
    "6c4a32d0c9431b9923a9f03794ede23c7c8e56b92d8280a9488b7f35cdbd4702";
// Work the batch records: buffer accumulations (the Fig. 7 cost driver)
// and E(c)^f modexps (one per block per segment).
constexpr std::uint64_t kFolds = 1016;
constexpr std::uint64_t kHomMuls = 120;
// Arming draws one fresh E(0) per slot, once per batch:
// l_F·s + l_F + l_I = 12·3 + 12 + 128.
constexpr std::uint64_t kArmEncrypts = 176;

// Three consecutive seals of one standing matcher (see
// SubscriptionSealsMatchGolden).
constexpr char kSubscriptionSha256[] =
    "ab49a09e43a81041c9b1021e17a99a1c8035aadcc76588e2f9c9b9c86bb8c0de";

const std::vector<std::string> kDict = {"alpha", "breach", "cipher", "delta",
                                        "echo",  "fox",    "golf",   "hotel"};

std::vector<std::string> makeStream() {
  std::vector<std::string> stream;
  for (int i = 0; i < 40; ++i) {
    stream.push_back(i % 5 == 2 ? "breach detected in cipher " +
                                      std::to_string(i)
                                : "routine entry " + std::to_string(i));
  }
  return stream;
}

const SearchParams kParams{
    .bufferLength = 12, .indexBufferLength = 128, .bloomHashes = 3};

/// One broker batch over the fixed stream with a pinned broker seed.
SearchResultEnvelope runBatch(const Dictionary& dict,
                              const EncryptedQuery& query) {
  Rng brokerRng(4242);
  StreamSearcher searcher(dict, query, /*blocks=*/3, brokerRng);
  const auto stream = makeStream();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    searcher.processSegment(i, stream[i]);
  }
  return searcher.finish();
}

std::string envelopeBytes(const SearchResultEnvelope& env) {
  ByteWriter w;
  env.serialize(w);
  return w.take();
}

TEST(EnvelopeGolden, Sha256KnownAnswers) {
  EXPECT_EQ(sha256Hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(EnvelopeGolden, FoldBytesMatchGolden) {
  const Dictionary dict(kDict);
  PrivateSearchClient client(dict, kParams, 128, /*seed=*/77);
  const EncryptedQuery query = client.makeQuery({"breach"});
  obs::MetricsRegistry reg;
  const SearchResultEnvelope env = [&] {
    obs::ScopedRegistry scope(reg);
    return runBatch(dict, query);
  }();
  EXPECT_EQ(sha256Hex(envelopeBytes(env)), kEnvelopeSha256);
  const obs::MetricsSnapshot counts = reg.snapshot();
  EXPECT_EQ(counts.counterValue("paillier.fold.count"), kFolds);
  EXPECT_EQ(counts.counterValue("paillier.homomorphic.mul.count"), kHomMuls);
  EXPECT_EQ(counts.counterValue("paillier.encrypt.count"), kArmEncrypts);

  // The pinned bytes must also still mean the right thing: every
  // i % 5 == 2 document, and only those, opens out of the envelope.
  const auto recovered = client.open(env);
  const auto stream = makeStream();
  ASSERT_EQ(recovered.size(), 8u);
  for (const auto& seg : recovered) {
    EXPECT_EQ(seg.index % 5, 2u);
    EXPECT_EQ(seg.payload, stream[seg.index]);
  }
}

TEST(EnvelopeGolden, ConcurrentSearchersMatchGolden) {
  // Overlapping kPssSearch RPCs on one historical run independent
  // searchers over one query concurrently; each must still produce the
  // golden envelope.
  const Dictionary dict(kDict);
  PrivateSearchClient client(dict, kParams, 128, /*seed=*/77);
  const EncryptedQuery query = client.makeQuery({"breach"});
  std::vector<std::string> got(4);
  {
    std::vector<std::thread> drivers;
    for (std::size_t t = 0; t < got.size(); ++t) {
      drivers.emplace_back(
          [&, t] { got[t] = sha256Hex(envelopeBytes(runBatch(dict, query))); });
    }
    for (auto& d : drivers) d.join();
  }
  for (std::size_t t = 0; t < got.size(); ++t) {
    EXPECT_EQ(got[t], kEnvelopeSha256) << "driver " << t;
  }
}

TEST(EnvelopeGolden, SubscriptionSealsMatchGolden) {
  // One standing matcher sealed three times: a full fill-triggered batch,
  // a partial batch padded up to l_F, and a batch carrying an oversized
  // document. The second and third batches run on buffers armed after a
  // seal, so this also pins the order in which arming draws the
  // matcher's rng (buffers, then the PRF seed, then the Bloom seed).
  const Dictionary dict(kDict);
  const SearchParams params{
      .bufferLength = 8, .indexBufferLength = 64, .bloomHashes = 3};
  PrivateSearchClient client(dict, params, 256, /*seed=*/91);
  SubscriptionSpec spec;
  spec.docSource = "events";
  spec.dictionaryWords = kDict;
  spec.query = client.makeQuery({"breach"});
  spec.blocksPerSegment = 2;
  spec.policy.maxDocuments = 10;
  spec.policy.periodMs = 0;

  const auto doc = [](std::uint64_t i) {
    return i % 3 == 1 ? "breach near cipher " + std::to_string(i)
                      : "routine entry " + std::to_string(i);
  };
  const std::string oversized = "breach " + std::string(200, 'x');
  obs::MetricsRegistry reg;
  std::vector<SubscriptionSnapshot> snaps;
  {
    obs::ScopedRegistry scope(reg);
    SubscriptionMatcher matcher(spec, /*seed=*/5150, /*nowMs=*/0);
    for (std::uint64_t i = 0; i < 24; ++i) {
      if (i == 14) {
        // Partial batch [10, 14): padded by 4 to reach l_F = 8.
        snaps.push_back(*matcher.seal(0));
      }
      const std::string text = i == 16 ? oversized : doc(i);
      EXPECT_EQ(matcher.feed(i, text, text, 0), i != 16);
      if (auto snap = matcher.sealIfDue(0)) snaps.push_back(std::move(*snap));
    }
  }
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].paddedSegments, 0u);
  EXPECT_EQ(snaps[1].paddedSegments, 4u);
  EXPECT_EQ(snaps[2].paddedSegments, 0u);

  ByteWriter w;
  for (const auto& snap : snaps) snap.serialize(w);
  EXPECT_EQ(sha256Hex(w.data()), kSubscriptionSha256);
  // One arming at construction plus one after each seal.
  const std::uint64_t armed = params.bufferLength * spec.blocksPerSegment +
                              params.bufferLength + params.indexBufferLength;
  EXPECT_EQ(reg.snapshot().counterValue("paillier.encrypt.count"), 4 * armed);

  // The pinned bytes still open to every matching document but the
  // oversized one.
  SubscriptionFeed feed(client.privateKey());
  for (const auto& snap : snaps) feed.apply("rt-0/events", snap.envelope);
  std::vector<std::uint64_t> got;
  for (const auto& [key, recovered] : feed.documents()) {
    got.push_back(recovered.streamIndex);
    EXPECT_EQ(recovered.payload, doc(recovered.streamIndex));
  }
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 4, 7, 10, 13, 19, 22}));
}

}  // namespace
}  // namespace dpss::pss
