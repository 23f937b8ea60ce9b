// Forged item counts on the client-facing RPCs, on the broker's scatter
// RPC, on span shipping and in the metastore row codec (substrate
// replies, journal and snapshot files): a sender that declares 2^62
// envelopes, words, rows, values, segments, scans, snapshots, acks, ids,
// spans or metastore records must get a typed CorruptData before
// anything is sized by the count.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/broker_rpc.h"
#include "cluster/cluster.h"
#include "cluster/meta_codec.h"
#include "cluster/span_ship.h"
#include "cluster/subscription_broker.h"
#include "cluster/subscription_rpc.h"
#include "cluster/transport.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/error.h"

namespace dpss::cluster {
namespace {

constexpr std::uint64_t kForged = std::uint64_t{1} << 62;

TEST(ClientRpcDecode, ForgedEnvelopeCountIsCorruptData) {
  ByteWriter w;
  w.varint(kForged);
  w.u64(7);
  EXPECT_THROW(decodeBrokerSearchResponse(w.take()), CorruptData);
}

TEST(ClientRpcDecode, ForgedDictionaryWordCountIsCorruptData) {
  ByteWriter w;
  w.u8(rpc::kBrokerSearch);
  w.str("docs");
  w.varint(kForged);
  w.str("word");
  EXPECT_THROW(decodeBrokerSearchRequest(w.take()), CorruptData);
}

TEST(ClientRpcDecode, ForgedOutcomeCountsAreCorruptData) {
  ByteWriter rows;
  rows.varint(kForged);
  rows.str("group");
  EXPECT_THROW(decodeBrokerQueryOutcome(rows.take()), CorruptData);

  ByteWriter values;
  values.varint(1);
  values.str("group");
  values.varint(kForged);
  values.f64(1.0);
  EXPECT_THROW(decodeBrokerQueryOutcome(values.take()), CorruptData);

  ByteWriter segments;
  segments.varint(0);  // rows
  for (int i = 0; i < 4; ++i) segments.varint(0);
  segments.varint(kForged);
  segments.u64(0);
  EXPECT_THROW(decodeBrokerQueryOutcome(segments.take()), CorruptData);
}

TEST(ClientRpcDecode, OutcomeRoundTripsWithinTheBounds) {
  BrokerQueryOutcome outcome;
  outcome.rows.push_back({"g", {1.0, 2.5}});
  outcome.unreachableSegments.push_back(
      storage::SegmentId{"ds", Interval(0, 10), "v1", 3});
  outcome.traceId = 9;
  const BrokerQueryOutcome back =
      decodeBrokerQueryOutcome(encodeBrokerQueryOutcome(outcome));
  ASSERT_EQ(back.rows.size(), 1u);
  EXPECT_EQ(back.rows[0].values, outcome.rows[0].values);
  EXPECT_EQ(back.unreachableSegments, outcome.unreachableSegments);
  EXPECT_EQ(back.traceId, 9u);
}

TEST(ClientRpcDecode, ForgedSnapshotCountIsCorruptData) {
  ByteWriter w;
  w.varint(kForged);
  w.varint(1);
  w.str("node");
  EXPECT_THROW(decodeSnapshotList(w.take()), CorruptData);
}

TEST(ClientRpcDecode, ForgedSubscriptionIdCountIsCorruptData) {
  ManualClock clock(0);
  Transport transport(clock);
  transport.bind("rt", [](const std::string&) {
    ByteWriter w;
    w.varint(kForged);
    w.varint(1);
    return w.take();
  });
  EXPECT_THROW(listSubscriptions(transport, "rt", {}), CorruptData);
}

TEST(ClientRpcDecode, ForgedSpanShipCountIsCorruptData) {
  ByteWriter w;
  w.u8(rpc::kSpans);
  w.u8(spans_op::kShip);
  w.str("hist-0");
  w.varint(kForged);
  obs::Span{}.serialize(w);
  obs::TraceCollector collector;
  EXPECT_THROW(handleSpansRpc(collector, w.take()), CorruptData);
  EXPECT_TRUE(collector.spansFor(0).empty());
}

TEST(ClientRpcDecode, ScatterRequestAndReplyRoundTrip) {
  query::QuerySpec spec;
  spec.dataSource = "ds";
  spec.interval = Interval(0, 10);
  spec.aggregations = {query::countAgg("cnt")};
  const std::vector<storage::SegmentId> ids = {
      storage::SegmentId{"ds", Interval(0, 5), "v1", 0},
      storage::SegmentId{"ds", Interval(5, 10), "v1", 2}};
  const std::string request = encodeScatterRequest(ids, spec);
  ASSERT_EQ(static_cast<std::uint8_t>(request[0]), rpc::kQuerySegment);
  const ScatterRequest back =
      decodeScatterRequest(std::string_view(request).substr(1));
  EXPECT_EQ(back.segments, ids);
  EXPECT_EQ(back.spec.fingerprint(), spec.fingerprint());

  const std::vector<SegmentScan> scans = {{true, 1234, "partial"},
                                          {false, 0, ""}};
  const auto decoded = decodeScatterReply(encodeScatterReply(scans), 2);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_TRUE(decoded[0].served);
  EXPECT_EQ(decoded[0].scanNs, 1234u);
  EXPECT_EQ(decoded[0].partial, "partial");
  EXPECT_FALSE(decoded[1].served);
}

TEST(ClientRpcDecode, ForgedScatterRequestCountIsCorruptData) {
  ByteWriter w;
  w.varint(kForged);
  storage::SegmentId{"ds", Interval(0, 10), "v1", 0}.serialize(w);
  EXPECT_THROW(decodeScatterRequest(w.take()), CorruptData);
}

TEST(ClientRpcDecode, ForgedScatterReplyCountIsCorruptData) {
  ByteWriter forged;
  forged.varint(kForged);
  forged.u8(1);
  forged.varint(5);
  forged.str("partial");
  EXPECT_THROW(decodeScatterReply(forged.take(), 1), CorruptData);

  // A well-formed reply for a different number of segments.
  const std::string two =
      encodeScatterReply({{false, 0, ""}, {false, 0, ""}});
  EXPECT_THROW(decodeScatterReply(two, 1), CorruptData);
  EXPECT_THROW(decodeScatterReply(two, 3), CorruptData);
}

TEST(ClientRpcDecode, ForgedSnapshotAckCountIsCorruptData) {
  ManualClock clock(1'400'000'000'000);
  Cluster cluster(clock, {.historicalNodes = 1});
  ByteWriter w;
  w.u8(rpc::kSnapshot);
  w.u8(subrpc::kCollect);
  w.varint(1);  // subscription id
  w.varint(kForged);
  w.str("rt-0");
  w.u64(3);
  EXPECT_THROW(cluster.subscriptionBroker().handleRpc(w.take()), CorruptData);
}

TEST(MetaCodecDecode, ForgedSegmentRecordCountIsCorruptData) {
  ByteWriter w;
  w.varint(kForged);
  meta_codec::writeRecord(
      w, SegmentRecord{storage::SegmentId{"ds", Interval(0, 10), "v1", 0},
                       "key", true, 1});
  ByteReader r(w.data());
  EXPECT_THROW(meta_codec::readRecords(r), CorruptData);
}

TEST(MetaCodecDecode, ForgedSubscriptionRecordCountIsCorruptData) {
  ByteWriter w;
  w.varint(kForged);
  meta_codec::writeSubscription(w, SubscriptionRecord{1, "spec", 0});
  ByteReader r(w.data());
  EXPECT_THROW(meta_codec::readSubscriptions(r), CorruptData);
}

}  // namespace
}  // namespace dpss::cluster
