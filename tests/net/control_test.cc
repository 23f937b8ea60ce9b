// Forged item counts on the dpss_node control channel: a batch of
// documents or events, or a served-segments reply, that declares 2^62
// items must get a typed CorruptData before anything is sized by the
// count, and a corrupt ingest batch appends none of its events.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cluster/cluster.h"
#include "cluster/message_queue.h"
#include "cluster/transport.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/error.h"
#include "net/control.h"

namespace dpss::net {
namespace {

constexpr std::uint64_t kForged = std::uint64_t{1} << 62;

ByteWriter controlRequest(std::uint8_t subop) {
  ByteWriter w;
  w.u8(cluster::rpc::kControl);
  w.u8(subop);
  return w;
}

TEST(ControlDecode, ForgedDocumentCountIsCorruptData) {
  ManualClock clock(0);
  cluster::Cluster cluster(clock, {.historicalNodes = 1});
  ControlTargets targets;
  targets.historical = &cluster.historical(0);
  bindControl(cluster.transport(), "hist", "historical", targets);
  ByteWriter w = controlRequest(control_op::kLoadDocs);
  w.str("docs");
  w.u64(0);
  w.varint(kForged);
  w.str("one document");
  EXPECT_THROW(cluster.transport().call(controlNode("hist"), w.take()),
               CorruptData);
  unbindControl(cluster.transport(), "hist");
}

TEST(ControlDecode, CorruptIngestBatchAppendsNothing) {
  ManualClock clock(0);
  cluster::Transport transport(clock);
  cluster::MessageQueue queue;
  queue.createTopic("events", 1);
  bindControl(transport, "rt", "realtime",
              {.queue = &queue, .topic = "events", .partition = 0});
  ByteWriter forged = controlRequest(control_op::kIngest);
  forged.varint(kForged);
  forged.str("event 0");
  forged.str("event 1");
  EXPECT_THROW(transport.call(controlNode("rt"), forged.take()), CorruptData);
  // Two whole events, then one cut short: still nothing is appended.
  ByteWriter truncated = controlRequest(control_op::kIngest);
  truncated.varint(3);
  truncated.str("event 0");
  truncated.str("event 1");
  truncated.varint(40);
  EXPECT_THROW(transport.call(controlNode("rt"), truncated.take()),
               CorruptData);
  EXPECT_EQ(queue.endOffset("events", 0), 0u);
  EXPECT_EQ(controlIngest(transport, "rt", {"event 0", "event 1"}), 2u);
  unbindControl(transport, "rt");
}

TEST(ControlDecode, ForgedServedSegmentCountIsCorruptData) {
  ManualClock clock(0);
  cluster::Transport transport(clock);
  transport.bind(controlNode("hist"), [](const std::string&) {
    ByteWriter w;
    w.varint(kForged);
    w.str("ds_0_10_v1_0");
    return w.take();
  });
  EXPECT_THROW(controlServedSegments(transport, "hist"), CorruptData);
}

}  // namespace
}  // namespace dpss::net
