// Broker-as-a-service: the wire codecs and handler that let a client in
// another OS process run full distributed queries (rpc::kBrokerQuery) and
// private-search rounds (rpc::kBrokerSearch) against a BrokerNode, plus
// the RemoteBroker proxy that speaks them.
//
// In-process deployments call BrokerNode directly and never touch this;
// dpss_node's broker role serves these rpcs and its client side drives
// runDistributedPrivateSearch through a RemoteBroker unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/broker_node.h"
#include "cluster/rpc_policy.h"
#include "cluster/search_broker.h"
#include "cluster/transport.h"
#include "pss/dictionary.h"
#include "pss/query.h"
#include "pss/searcher.h"
#include "query/query.h"

namespace dpss::cluster {

// --- wire codecs (exposed for tests) -------------------------------------

/// kBrokerQuery request: [rpc::kBrokerQuery][QuerySpec].
std::string encodeBrokerQueryRequest(const query::QuerySpec& spec);
/// Outcome round-trips losslessly, partial-result annotations included.
std::string encodeBrokerQueryOutcome(const BrokerQueryOutcome& outcome);
BrokerQueryOutcome decodeBrokerQueryOutcome(const std::string& bytes);

struct BrokerSearchRequest {
  std::string docSource;
  pss::Dictionary dictionary;
  pss::EncryptedQuery query;
};

/// kBrokerSearch request: [rpc::kBrokerSearch][docSource][dict][query].
std::string encodeBrokerSearchRequest(const BrokerSearchRequest& req);
BrokerSearchRequest decodeBrokerSearchRequest(const std::string& bytes);

struct BrokerSearchResponse {
  std::vector<pss::SearchResultEnvelope> envelopes;
  std::uint64_t traceId = 0;
};

std::string encodeBrokerSearchResponse(const BrokerSearchResponse& resp);
BrokerSearchResponse decodeBrokerSearchResponse(const std::string& bytes);

/// Serves one kBrokerQuery / kBrokerSearch request (full bytes, tag
/// included) on behalf of `broker`. BrokerNode's bound handler dispatches
/// here; errors (Unavailable on majority loss, etc.) propagate to the
/// transport as usual.
std::string handleBrokerRpc(BrokerNode& broker, const std::string& request);

// --- client proxy --------------------------------------------------------

/// Drives a broker living behind a transport (typically another OS
/// process over TCP). Same surface as BrokerNode where it matters:
/// query() for distributed queries, the PrivateSearchBroker interface so
/// runDistributedPrivateSearch works unchanged.
class RemoteBroker final : public PrivateSearchBroker {
 public:
  RemoteBroker(TransportIface& transport, std::string brokerNode,
               RpcPolicy rpc = {});

  BrokerQueryOutcome query(const query::QuerySpec& spec);

  std::vector<pss::SearchResultEnvelope> privateSearch(
      const std::string& docSource, const pss::Dictionary& dictionary,
      const pss::EncryptedQuery& encryptedQuery,
      std::uint64_t* traceIdOut = nullptr) override;

  Clock& clock() override { return transport_.clock(); }

 private:
  TransportIface& transport_;
  std::string brokerNode_;
  RpcPolicy rpc_;
};

}  // namespace dpss::cluster
