// Process control channel (rpc::kControl) every dpss_node binds as
// "<name>.ctl": lets a launcher ping a role, load private-search document
// slices into a historical, produce events into a realtime node's local
// queue, inspect served segments, and request graceful shutdown — the
// out-of-band driving a single-process harness does with direct method
// calls. Both the handler and the client helpers live here so the binary
// and the multi-process test speak the same bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/historical_node.h"
#include "cluster/message_queue.h"
#include "cluster/transport.h"

namespace dpss::net {

/// Sub-operation codes, the byte after rpc::kControl.
namespace control_op {
constexpr std::uint8_t kPing = 1;
constexpr std::uint8_t kLoadDocs = 2;
constexpr std::uint8_t kIngest = 3;
constexpr std::uint8_t kShutdown = 4;
constexpr std::uint8_t kServedSegments = 5;
constexpr std::uint8_t kDecommission = 6;
constexpr std::uint8_t kDrainState = 7;
}  // namespace control_op

/// The control node name for a logical node.
inline std::string controlNode(const std::string& nodeName) {
  return nodeName + ".ctl";
}

/// Role-specific capabilities the control handler can reach. Ops whose
/// target is absent answer with InvalidArgument.
struct ControlTargets {
  cluster::HistoricalNode* historical = nullptr;
  cluster::MessageQueue* queue = nullptr;
  std::string topic;
  std::size_t partition = 0;
};

/// True once any bound control handler received kShutdown (process-wide,
/// polled by dpss_node's main loop).
bool shutdownRequested();

/// Binds "<name>.ctl" on the transport.
void bindControl(cluster::TransportIface& transport,
                 const std::string& nodeName, const std::string& role,
                 ControlTargets targets);
/// Unbinds "<name>.ctl" (before the ControlTargets it captured die).
void unbindControl(cluster::TransportIface& transport,
                   const std::string& nodeName);

// --- client helpers ------------------------------------------------------

/// Returns the role string the process reports.
std::string controlPing(cluster::TransportIface& transport,
                        const std::string& nodeName);

void controlLoadDocuments(cluster::TransportIface& transport,
                          const std::string& nodeName,
                          const std::string& docSource, std::uint64_t baseIndex,
                          const std::vector<std::string>& documents);

/// Appends event payloads to the realtime node's queue; returns the
/// partition's end offset after the append.
std::uint64_t controlIngest(cluster::TransportIface& transport,
                            const std::string& nodeName,
                            const std::vector<std::string>& payloads);

void controlShutdown(cluster::TransportIface& transport,
                     const std::string& nodeName);

/// Canonical segment-id strings the historical currently serves.
std::vector<std::string> controlServedSegments(
    cluster::TransportIface& transport, const std::string& nodeName);

/// Puts a historical into drain mode (graceful decommission). The node
/// refuses new loads from then on; the coordinator re-replicates its
/// segments elsewhere and flips the flag to complete once it serves
/// nothing. Idempotent.
void controlDecommission(cluster::TransportIface& transport,
                         const std::string& nodeName);

/// Drain progress for a historical.
struct DrainState {
  bool draining = false;
  bool complete = false;
  std::uint64_t servedSegments = 0;
};
DrainState controlDrainState(cluster::TransportIface& transport,
                             const std::string& nodeName);

}  // namespace dpss::net
