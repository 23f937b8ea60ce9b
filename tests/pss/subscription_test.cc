#include "pss/subscription.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "pss/session.h"

namespace dpss::pss {
namespace {

class SubscriptionTest : public ::testing::Test {
 protected:
  SubscriptionTest() : dict_({"anomaly", "normal", "spike"}) {}

  SubscriptionSpec makeSpec(const std::set<std::string>& keywords,
                            std::size_t maxDocuments,
                            std::int64_t periodMs = 0) {
    SubscriptionSpec spec;
    spec.docSource = "events";
    spec.dictionaryWords = dict_.words();
    spec.query = client_.makeQuery(keywords);
    spec.blocksPerSegment = 2;
    spec.policy.maxDocuments = maxDocuments;
    spec.policy.periodMs = periodMs;
    return spec;
  }

  /// Feeds payloads at contiguous offsets starting from `base`, sealing
  /// whenever the matcher says it is due; returns all sealed snapshots.
  std::vector<SubscriptionSnapshot> run(SubscriptionMatcher& m,
                                        std::uint64_t base,
                                        const std::vector<std::string>& docs) {
    std::vector<SubscriptionSnapshot> out;
    for (std::size_t i = 0; i < docs.size(); ++i) {
      m.feed(base + i, docs[i], docs[i], /*nowMs=*/1000);
      if (auto snap = m.sealIfDue(1000)) out.push_back(std::move(*snap));
    }
    return out;
  }

  Dictionary dict_;
  SearchParams params_{16, 256, 5};
  PrivateSearchClient client_{dict_, params_, 128, 1212};
};

TEST_F(SubscriptionTest, RecoversMatchesAcrossSnapshots) {
  SubscriptionMatcher matcher(makeSpec({"anomaly"}, 10), 77, 0);
  std::vector<std::string> docs;
  std::map<std::uint64_t, std::string> expected;
  for (int i = 0; i < 30; ++i) {
    if (i % 7 == 0) {
      docs.push_back("anomaly at tick " + std::to_string(i));
      expected[static_cast<std::uint64_t>(i)] = docs.back();
    } else {
      docs.push_back("normal tick " + std::to_string(i));
    }
  }
  const auto snaps = run(matcher, 0, docs);
  EXPECT_EQ(snaps.size(), 3u);

  SubscriptionFeed feed(client_.privateKey());
  for (const auto& snap : snaps) feed.apply("rt-0/events", snap.envelope);
  ASSERT_EQ(feed.documents().size(), expected.size());
  for (const auto& [key, doc] : feed.documents()) {
    ASSERT_TRUE(expected.count(doc.streamIndex));
    EXPECT_EQ(doc.payload, expected.at(doc.streamIndex));
    EXPECT_EQ(doc.cValue, 1u);
  }
}

TEST_F(SubscriptionTest, PartialBatchIsPaddedToBufferLength) {
  SubscriptionMatcher matcher(makeSpec({"spike"}, 100), 78, 0);
  matcher.feed(40, "spike begins", "spike begins", 0);
  matcher.feed(41, "normal", "normal", 0);
  matcher.feed(42, "spike ends", "spike ends", 0);
  auto snap = matcher.seal(0);
  ASSERT_TRUE(snap.has_value());
  // Padded up to l_F so the reconstructor's t >= l_F requirement holds.
  EXPECT_EQ(snap->envelope.segmentsProcessed, params_.bufferLength);
  EXPECT_EQ(snap->paddedSegments, params_.bufferLength - 3);

  SubscriptionFeed feed(client_.privateKey());
  const auto fresh = feed.apply("rt", snap->envelope);
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_EQ(fresh[0].streamIndex, 40u);
  EXPECT_EQ(fresh[0].payload, "spike begins");
  EXPECT_EQ(fresh[1].streamIndex, 42u);
  EXPECT_EQ(fresh[1].payload, "spike ends");
}

TEST_F(SubscriptionTest, ReplayedSnapshotsDeduplicate) {
  SubscriptionMatcher matcher(makeSpec({"anomaly"}, 100), 79, 0);
  matcher.feed(0, "anomaly", "anomaly", 0);
  auto snap = matcher.seal(0);
  ASSERT_TRUE(snap.has_value());

  SubscriptionFeed feed(client_.privateKey());
  EXPECT_EQ(feed.apply("rt", snap->envelope).size(), 1u);
  // A crash/replay delivers the same range again: nothing new surfaces.
  EXPECT_EQ(feed.apply("rt", snap->envelope).size(), 0u);
  EXPECT_EQ(feed.documents().size(), 1u);
  EXPECT_EQ(feed.duplicatesDropped(), 1u);

  // The same position on a different stream is a different document.
  EXPECT_EQ(feed.apply("rt-2", snap->envelope).size(), 1u);
  EXPECT_EQ(feed.documents().size(), 2u);
}

TEST_F(SubscriptionTest, OversizedDocumentKeepsPositionsContiguous) {
  SubscriptionMatcher matcher(makeSpec({"anomaly"}, 100), 80, 0);
  const std::string huge = "anomaly " + std::string(200, 'x');
  EXPECT_FALSE(matcher.feed(0, huge, huge, 0));
  EXPECT_TRUE(matcher.feed(1, "anomaly small", "anomaly small", 0));
  EXPECT_EQ(matcher.documentsOversized(), 1u);
  auto snap = matcher.seal(0);
  ASSERT_TRUE(snap.has_value());

  SubscriptionFeed feed(client_.privateKey());
  const auto fresh = feed.apply("rt", snap->envelope);
  // The oversized document is dropped (folded as empty — unrecoverable),
  // the next one still lands at its true stream position.
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].streamIndex, 1u);
  EXPECT_EQ(fresh[0].payload, "anomaly small");
}

TEST_F(SubscriptionTest, PeriodAndFillTriggers) {
  SubscriptionMatcher byTime(makeSpec({"anomaly"}, 0, 500), 81, 0);
  EXPECT_FALSE(byTime.due(10'000));  // empty batch never seals
  byTime.feed(0, "normal", "normal", 1000);
  EXPECT_FALSE(byTime.due(1400));
  EXPECT_TRUE(byTime.due(1500));

  SubscriptionMatcher byFill(makeSpec({"anomaly"}, 2, 0), 82, 0);
  byFill.feed(0, "normal", "normal", 0);
  EXPECT_FALSE(byFill.due(0));
  EXPECT_EQ(byFill.fillPercent(), 50u);
  byFill.feed(1, "normal", "normal", 0);
  EXPECT_TRUE(byFill.due(0));
}

TEST_F(SubscriptionTest, SpecAndSnapshotSerializationRoundTrip) {
  SubscriptionSpec spec = makeSpec({"spike"}, 7, 250);
  ByteWriter w;
  spec.serialize(w);
  ByteReader r(w.data());
  SubscriptionSpec back = SubscriptionSpec::deserialize(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.docSource, "events");
  EXPECT_EQ(back.dictionaryWords, dict_.words());
  EXPECT_EQ(back.blocksPerSegment, 2u);
  EXPECT_EQ(back.policy.maxDocuments, 7u);
  EXPECT_EQ(back.policy.periodMs, 250);

  // A matcher stood up from the wire spec produces openable envelopes.
  SubscriptionMatcher matcher(back, 83, 0);
  matcher.feed(5, "spike", "spike", 0);
  auto snap = matcher.seal(0);
  ASSERT_TRUE(snap.has_value());
  snap->id = 9;
  snap->node = "rt-1";
  snap->seq = 3;
  ByteWriter sw;
  snap->serialize(sw);
  ByteReader sr(sw.data());
  SubscriptionSnapshot sback = SubscriptionSnapshot::deserialize(sr);
  EXPECT_TRUE(sr.done());
  EXPECT_EQ(sback.id, 9u);
  EXPECT_EQ(sback.node, "rt-1");
  EXPECT_EQ(sback.seq, 3u);

  SubscriptionFeed feed(client_.privateKey());
  const auto fresh = feed.apply("rt-1", sback.envelope);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].streamIndex, 5u);
}

TEST_F(SubscriptionTest, ForgedWordCountIsCorruptData) {
  // A spec declaring 2^62 dictionary words must be refused before the
  // realtime node sizes anything by the count.
  ByteWriter w;
  w.str("events");
  w.varint(std::uint64_t{1} << 62);
  w.str("anomaly");
  ByteReader r(w.data());
  EXPECT_THROW(SubscriptionSpec::deserialize(r), CorruptData);
}

TEST_F(SubscriptionTest, SnapshotSizeIsIndependentOfStreamLength) {
  // The paper's headline property: per-snapshot communication is the
  // fixed buffer size, no matter how many documents flowed through.
  SubscriptionMatcher small(makeSpec({"spike"}, 0), 84, 0);
  SubscriptionMatcher large(makeSpec({"spike"}, 0), 85, 0);
  for (int i = 0; i < 20; ++i) small.feed(i, "normal", "normal", 0);
  for (int i = 0; i < 120; ++i) large.feed(i, "normal", "normal", 0);
  auto a = small.seal(0);
  auto b = large.seal(0);
  ASSERT_TRUE(a.has_value() && b.has_value());
  ByteWriter wa, wb;
  a->serialize(wa);
  b->serialize(wb);
  // Ciphertexts are random residues mod n², so serialized sizes wobble by
  // a few stripped leading-zero bytes — but 6x the documents must not
  // grow the snapshot (fixed l_I + l_F·(s+1) slots either way).
  const double ratio =
      static_cast<double>(wb.size()) / static_cast<double>(wa.size());
  EXPECT_NEAR(ratio, 1.0, 0.01);
}

}  // namespace
}  // namespace dpss::pss
