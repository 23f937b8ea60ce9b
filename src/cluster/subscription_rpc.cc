#include "cluster/subscription_rpc.h"

#include "common/bytes.h"

namespace dpss::cluster {

std::string encodeRegisterRequest(const pss::SubscriptionSpec& spec) {
  ByteWriter w;
  w.u8(rpc::kSubscribe);
  w.u8(subrpc::kRegister);
  spec.serialize(w);
  return w.take();
}

std::string encodeAttachRequest(pss::SubscriptionId id,
                                const pss::SubscriptionSpec& spec) {
  ByteWriter w;
  w.u8(rpc::kSubscribe);
  w.u8(subrpc::kAttach);
  w.varint(id);
  spec.serialize(w);
  return w.take();
}

std::string encodeListRequest() {
  ByteWriter w;
  w.u8(rpc::kSubscribe);
  w.u8(subrpc::kList);
  return w.take();
}

std::string encodeUnsubscribeRequest(pss::SubscriptionId id) {
  ByteWriter w;
  w.u8(rpc::kUnsubscribe);
  w.varint(id);
  return w.take();
}

std::string encodeCollectRequest(
    pss::SubscriptionId id, const std::map<std::string, std::uint64_t>& acks) {
  ByteWriter w;
  w.u8(rpc::kSnapshot);
  w.u8(subrpc::kCollect);
  w.varint(id);
  w.varint(acks.size());
  for (const auto& [node, seq] : acks) {
    w.str(node);
    w.u64(seq);
  }
  return w.take();
}

std::string encodeFetchRequest(pss::SubscriptionId id, std::uint64_t ackSeq) {
  ByteWriter w;
  w.u8(rpc::kSnapshot);
  w.u8(subrpc::kFetch);
  w.varint(id);
  w.u64(ackSeq);
  return w.take();
}

std::string encodeSnapshotList(
    const std::vector<pss::SubscriptionSnapshot>& snapshots) {
  ByteWriter w;
  w.varint(snapshots.size());
  for (const auto& s : snapshots) s.serialize(w);
  return w.take();
}

std::vector<pss::SubscriptionSnapshot> decodeSnapshotList(
    const std::string& bytes) {
  ByteReader r(bytes);
  // A snapshot carries its seq and its envelope's five u64 fields.
  const std::uint64_t n = r.count(48);
  std::vector<pss::SubscriptionSnapshot> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(pss::SubscriptionSnapshot::deserialize(r));
  }
  return out;
}

pss::SubscriptionId registerSubscription(TransportIface& transport,
                                         const std::string& brokerNode,
                                         const pss::SubscriptionSpec& spec,
                                         const RpcPolicy& rpc) {
  OwnedByteReader resp(
      callWithPolicy(transport, brokerNode, encodeRegisterRequest(spec), rpc));
  return resp.varint();
}

void attachSubscription(TransportIface& transport, const std::string& node,
                        pss::SubscriptionId id,
                        const pss::SubscriptionSpec& spec,
                        const RpcPolicy& rpc) {
  callWithPolicy(transport, node, encodeAttachRequest(id, spec), rpc);
}

std::vector<pss::SubscriptionId> listSubscriptions(TransportIface& transport,
                                                   const std::string& node,
                                                   const RpcPolicy& rpc) {
  OwnedByteReader resp(
      callWithPolicy(transport, node, encodeListRequest(), rpc));
  const std::uint64_t n = resp.count(1);  // one varint per id
  std::vector<pss::SubscriptionId> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(resp.varint());
  return out;
}

void unsubscribeOn(TransportIface& transport, const std::string& node,
                   pss::SubscriptionId id, const RpcPolicy& rpc) {
  callWithPolicy(transport, node, encodeUnsubscribeRequest(id), rpc);
}

std::vector<pss::SubscriptionSnapshot> collectSnapshots(
    TransportIface& transport, const std::string& brokerNode,
    pss::SubscriptionId id, const std::map<std::string, std::uint64_t>& acks,
    const RpcPolicy& rpc) {
  return decodeSnapshotList(callWithPolicy(
      transport, brokerNode, encodeCollectRequest(id, acks), rpc));
}

std::vector<pss::SubscriptionSnapshot> fetchSnapshots(
    TransportIface& transport, const std::string& node, pss::SubscriptionId id,
    std::uint64_t ackSeq, const RpcPolicy& rpc) {
  return decodeSnapshotList(
      callWithPolicy(transport, node, encodeFetchRequest(id, ackSeq), rpc));
}

}  // namespace dpss::cluster
