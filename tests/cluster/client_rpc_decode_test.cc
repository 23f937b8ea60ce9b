// Forged item counts on the client-facing RPCs and on span shipping: a
// sender that declares 2^62 envelopes, words, rows, values, segments,
// snapshots, ids or spans must get a typed CorruptData before anything is
// sized by the count.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cluster/broker_rpc.h"
#include "cluster/span_ship.h"
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

}  // namespace
}  // namespace dpss::cluster
