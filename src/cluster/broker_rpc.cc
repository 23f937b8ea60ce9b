#include "cluster/broker_rpc.h"

#include "common/bytes.h"
#include "common/error.h"

namespace dpss::cluster {

namespace {

void writeRows(ByteWriter& w, const std::vector<query::ResultRow>& rows) {
  w.varint(rows.size());
  for (const auto& row : rows) {
    w.str(row.group);
    w.varint(row.values.size());
    for (const double v : row.values) w.f64(v);
  }
}

std::vector<query::ResultRow> readRows(ByteReader& r) {
  // A row is at least a 1-byte group length and a 1-byte value count.
  const std::uint64_t n = r.count(2);
  std::vector<query::ResultRow> rows;
  rows.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    query::ResultRow row;
    row.group = r.str();
    const std::uint64_t m = r.count(8);  // f64 values
    row.values.reserve(m);
    for (std::uint64_t j = 0; j < m; ++j) row.values.push_back(r.f64());
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

std::string encodeBrokerQueryRequest(const query::QuerySpec& spec) {
  ByteWriter w;
  w.u8(rpc::kBrokerQuery);
  spec.serialize(w);
  return w.take();
}

std::string encodeBrokerQueryOutcome(const BrokerQueryOutcome& outcome) {
  ByteWriter w;
  writeRows(w, outcome.rows);
  w.varint(outcome.rowsScanned);
  w.varint(outcome.segmentsQueried);
  w.varint(outcome.cacheHits);
  w.varint(outcome.servedFromCacheAfterLoss);
  w.varint(outcome.unreachableSegments.size());
  for (const auto& id : outcome.unreachableSegments) id.serialize(w);
  w.u64(outcome.traceId);
  return w.take();
}

BrokerQueryOutcome decodeBrokerQueryOutcome(const std::string& bytes) {
  ByteReader r(bytes);
  BrokerQueryOutcome outcome;
  outcome.rows = readRows(r);
  outcome.rowsScanned = r.varint();
  outcome.segmentsQueried = static_cast<std::size_t>(r.varint());
  outcome.cacheHits = static_cast<std::size_t>(r.varint());
  outcome.servedFromCacheAfterLoss = static_cast<std::size_t>(r.varint());
  const std::uint64_t n = r.count(storage::SegmentId::kMinWireBytes);
  outcome.unreachableSegments.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    outcome.unreachableSegments.push_back(storage::SegmentId::deserialize(r));
  }
  outcome.traceId = r.u64();
  return outcome;
}

std::string encodeBrokerSearchRequest(const BrokerSearchRequest& req) {
  ByteWriter w;
  w.u8(rpc::kBrokerSearch);
  w.str(req.docSource);
  w.varint(req.dictionary.size());
  for (const auto& word : req.dictionary.words()) w.str(word);
  req.query.serialize(w);
  return w.take();
}

std::string encodeBrokerSearchResponse(const BrokerSearchResponse& resp) {
  ByteWriter w;
  w.varint(resp.envelopes.size());
  for (const auto& env : resp.envelopes) env.serialize(w);
  w.u64(resp.traceId);
  return w.take();
}

BrokerSearchRequest decodeBrokerSearchRequest(const std::string& bytes) {
  if (bytes.empty() ||
      static_cast<std::uint8_t>(bytes[0]) != rpc::kBrokerSearch) {
    throw CorruptData("not a broker search request");
  }
  ByteReader r(std::string_view(bytes).substr(1));
  BrokerSearchRequest req;
  req.docSource = r.str();
  // Each word costs at least its 1-byte length prefix.
  const std::uint64_t n = r.count(1);
  std::vector<std::string> words;
  words.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) words.push_back(r.str());
  req.dictionary = pss::Dictionary(std::move(words));
  req.query = pss::EncryptedQuery::deserialize(r);
  return req;
}

BrokerSearchResponse decodeBrokerSearchResponse(const std::string& bytes) {
  ByteReader r(bytes);
  BrokerSearchResponse resp;
  // An envelope carries at least its five u64 fields.
  const std::uint64_t n = r.count(40);
  resp.envelopes.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    resp.envelopes.push_back(pss::SearchResultEnvelope::deserialize(r));
  }
  resp.traceId = r.u64();
  return resp;
}

std::string handleBrokerRpc(BrokerNode& broker, const std::string& request) {
  if (request.empty()) throw CorruptData("empty broker rpc");
  ByteReader r(std::string_view(request).substr(1));
  switch (static_cast<std::uint8_t>(request[0])) {
    case rpc::kBrokerQuery: {
      const query::QuerySpec spec = query::QuerySpec::deserialize(r);
      return encodeBrokerQueryOutcome(broker.query(spec));
    }
    case rpc::kBrokerSearch: {
      const BrokerSearchRequest req = decodeBrokerSearchRequest(request);
      BrokerSearchResponse resp;
      resp.envelopes = broker.privateSearch(req.docSource, req.dictionary,
                                            req.query, &resp.traceId);
      return encodeBrokerSearchResponse(resp);
    }
    default:
      throw CorruptData("unknown broker rpc tag");
  }
}

RemoteBroker::RemoteBroker(TransportIface& transport, std::string brokerNode,
                           RpcPolicy rpc)
    : transport_(transport), brokerNode_(std::move(brokerNode)), rpc_(rpc) {}

BrokerQueryOutcome RemoteBroker::query(const query::QuerySpec& spec) {
  return decodeBrokerQueryOutcome(callWithPolicy(
      transport_, brokerNode_, encodeBrokerQueryRequest(spec), rpc_));
}

std::vector<pss::SearchResultEnvelope> RemoteBroker::privateSearch(
    const std::string& docSource, const pss::Dictionary& dictionary,
    const pss::EncryptedQuery& encryptedQuery, std::uint64_t* traceIdOut) {
  BrokerSearchRequest req;
  req.docSource = docSource;
  req.dictionary = pss::Dictionary(dictionary.words());
  req.query = encryptedQuery;
  const BrokerSearchResponse resp = decodeBrokerSearchResponse(
      callWithPolicy(transport_, brokerNode_, encodeBrokerSearchRequest(req),
                     rpc_));
  if (traceIdOut != nullptr) *traceIdOut = resp.traceId;
  return resp.envelopes;
}

}  // namespace dpss::cluster
