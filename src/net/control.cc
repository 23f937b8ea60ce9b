#include "net/control.h"

#include <atomic>

#include "cluster/rpc_policy.h"
#include "common/bytes.h"
#include "common/error.h"

namespace dpss::net {

namespace {

std::atomic<bool> g_shutdownRequested{false};

ByteWriter ctlRequest(std::uint8_t subop) {
  ByteWriter w;
  w.u8(cluster::rpc::kControl);
  w.u8(subop);
  return w;
}

}  // namespace

bool shutdownRequested() {
  return g_shutdownRequested.load(std::memory_order_acquire);
}

void bindControl(cluster::TransportIface& transport,
                 const std::string& nodeName, const std::string& role,
                 ControlTargets targets) {
  transport.bind(controlNode(nodeName), [role,
                                         targets](const std::string& body) {
    ByteReader r(body);
    if (r.u8() != cluster::rpc::kControl) {
      throw InvalidArgument("control handler got a non-control rpc");
    }
    const std::uint8_t subop = r.u8();
    ByteWriter w;
    switch (subop) {
      case control_op::kPing:
        w.str(role);
        break;
      case control_op::kLoadDocs: {
        if (targets.historical == nullptr) {
          throw InvalidArgument("control: this role holds no documents");
        }
        const std::string docSource = r.str();
        const std::uint64_t base = r.u64();
        const std::uint64_t n = r.count(1);  // a length prefix at least
        std::vector<std::string> docs;
        docs.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) docs.push_back(r.str());
        targets.historical->loadDocuments(docSource, base, std::move(docs));
        break;
      }
      case control_op::kIngest: {
        if (targets.queue == nullptr) {
          throw InvalidArgument("control: this role consumes no queue");
        }
        // Decode the whole batch before appending any of it, so a corrupt
        // batch leaves the queue untouched.
        const std::uint64_t n = r.count(1);  // a length prefix at least
        std::vector<std::string> payloads;
        payloads.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) payloads.push_back(r.str());
        for (auto& p : payloads) {
          targets.queue->append(targets.topic, targets.partition,
                                std::move(p));
        }
        w.u64(targets.queue->endOffset(targets.topic, targets.partition));
        break;
      }
      case control_op::kShutdown:
        g_shutdownRequested.store(true, std::memory_order_release);
        break;
      case control_op::kServedSegments: {
        if (targets.historical == nullptr) {
          throw InvalidArgument("control: this role serves no segments");
        }
        const auto served = targets.historical->servedSegments();
        w.varint(served.size());
        for (const auto& id : served) w.str(id.toString());
        break;
      }
      case control_op::kDecommission:
        if (targets.historical == nullptr) {
          throw InvalidArgument("control: this role cannot drain");
        }
        targets.historical->requestDrain();
        break;
      case control_op::kDrainState: {
        if (targets.historical == nullptr) {
          throw InvalidArgument("control: this role cannot drain");
        }
        w.u8(targets.historical->draining() ? 1 : 0);
        w.u8(targets.historical->drainComplete() ? 1 : 0);
        w.u64(targets.historical->servedSegments().size());
        break;
      }
      default:
        throw InvalidArgument("control: unknown sub-op " +
                              std::to_string(subop));
    }
    return w.take();
  });
}

void unbindControl(cluster::TransportIface& transport,
                   const std::string& nodeName) {
  transport.unbind(controlNode(nodeName));
}

std::string controlPing(cluster::TransportIface& transport,
                        const std::string& nodeName) {
  OwnedByteReader r(cluster::callWithPolicy(
      transport, controlNode(nodeName), ctlRequest(control_op::kPing).take()));
  return r.str();
}

void controlLoadDocuments(cluster::TransportIface& transport,
                          const std::string& nodeName,
                          const std::string& docSource, std::uint64_t baseIndex,
                          const std::vector<std::string>& documents) {
  ByteWriter w = ctlRequest(control_op::kLoadDocs);
  w.str(docSource);
  w.u64(baseIndex);
  w.varint(documents.size());
  for (const auto& d : documents) w.str(d);
  cluster::callWithPolicy(transport, controlNode(nodeName), w.take());
}

std::uint64_t controlIngest(cluster::TransportIface& transport,
                            const std::string& nodeName,
                            const std::vector<std::string>& payloads) {
  ByteWriter w = ctlRequest(control_op::kIngest);
  w.varint(payloads.size());
  for (const auto& p : payloads) w.str(p);
  OwnedByteReader r(
      cluster::callWithPolicy(transport, controlNode(nodeName), w.take()));
  return r.u64();
}

void controlShutdown(cluster::TransportIface& transport,
                     const std::string& nodeName) {
  cluster::callWithPolicy(transport, controlNode(nodeName),
                          ctlRequest(control_op::kShutdown).take());
}

std::vector<std::string> controlServedSegments(
    cluster::TransportIface& transport, const std::string& nodeName) {
  OwnedByteReader r(
      cluster::callWithPolicy(transport, controlNode(nodeName),
                              ctlRequest(control_op::kServedSegments).take()));
  const std::uint64_t n = r.count(1);  // a length prefix at least
  std::vector<std::string> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(r.str());
  return out;
}

void controlDecommission(cluster::TransportIface& transport,
                         const std::string& nodeName) {
  cluster::callWithPolicy(transport, controlNode(nodeName),
                          ctlRequest(control_op::kDecommission).take());
}

DrainState controlDrainState(cluster::TransportIface& transport,
                             const std::string& nodeName) {
  OwnedByteReader r(
      cluster::callWithPolicy(transport, controlNode(nodeName),
                              ctlRequest(control_op::kDrainState).take()));
  DrainState state;
  state.draining = r.u8() != 0;
  state.complete = r.u8() != 0;
  state.servedSegments = r.u64();
  return state;
}

}  // namespace dpss::net
