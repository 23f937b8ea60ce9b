#include "cluster/span_ship.h"

#include "common/error.h"
#include "common/logging.h"

namespace dpss::cluster {

namespace {

const obs::MetricId kShipped = obs::internCounter("obs.spans.shipped");
const obs::MetricId kShipFailures =
    obs::internCounter("obs.spans.ship_failures");
const obs::MetricId kShipDropped = obs::internCounter("obs.spans.ship_dropped");

void encodeSpans(ByteWriter& w, const std::vector<obs::Span>& spans) {
  w.varint(spans.size());
  for (const auto& s : spans) s.serialize(w);
}

std::vector<obs::Span> decodeSpans(ByteReader& r) {
  const std::uint64_t n = r.count(obs::Span::kMinWireBytes);
  std::vector<obs::Span> spans;
  spans.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    spans.push_back(obs::Span::deserialize(r));
  }
  return spans;
}

}  // namespace

std::string SpanBatch::encode() const {
  ByteWriter w;
  w.u8(rpc::kSpans);
  w.u8(spans_op::kShip);
  w.str(fromNode);
  encodeSpans(w, spans);
  return w.take();
}

SpanBatch SpanBatch::decode(ByteReader& r) {
  SpanBatch batch;
  batch.fromNode = r.str();
  batch.spans = decodeSpans(r);
  return batch;
}

std::string encodeSpanFetchRequest(std::uint64_t traceId) {
  ByteWriter w;
  w.u8(rpc::kSpans);
  w.u8(spans_op::kFetch);
  w.u64(traceId);
  return w.take();
}

std::string handleSpansRpc(obs::TraceCollector& collector,
                           const std::string& request) {
  ByteReader r(request);
  const std::uint8_t tag = r.u8();
  if (tag != rpc::kSpans) {
    throw CorruptData("span rpc: unexpected tag " + std::to_string(tag));
  }
  const std::uint8_t op = r.u8();
  switch (op) {
    case spans_op::kShip: {
      SpanBatch batch = SpanBatch::decode(r);
      collector.add(std::move(batch.spans));
      return {};
    }
    case spans_op::kFetch: {
      const std::uint64_t traceId = r.u64();
      ByteWriter w;
      encodeSpans(w, collector.spansFor(traceId));
      return w.take();
    }
    default:
      throw CorruptData("span rpc: unknown sub-op " + std::to_string(op));
  }
}

std::vector<obs::Span> callSpansFetch(TransportIface& transport,
                                      const std::string& sinkNode,
                                      std::uint64_t traceId,
                                      const RpcPolicy& policy) {
  const std::string response = callWithPolicy(
      transport, sinkNode, encodeSpanFetchRequest(traceId), policy);
  ByteReader r(response);
  return decodeSpans(r);
}

SpanShipper::SpanShipper(obs::MetricsRegistry& registry,
                         TransportIface& transport, std::string sinkNode,
                         Options options)
    : registry_(registry),
      transport_(transport),
      sink_(std::move(sinkNode)),
      options_(options) {}

void SpanShipper::tick() {
  MutexLock lock(mu_);
  std::vector<obs::Span> fresh = registry_.spans().collectSince(&cursor_);
  for (auto& s : fresh) {
    if (pending_.size() >= options_.maxPending) {
      // Drop the oldest half: the newest spans are the ones an operator
      // is about to ask about.
      const std::size_t drop = pending_.size() / 2;
      registry_.counter(kShipDropped).inc(drop);
      pending_.erase(pending_.begin(),
                     pending_.begin() + static_cast<std::ptrdiff_t>(drop));
    }
    pending_.push_back(std::move(s));
  }
  while (!pending_.empty()) {
    SpanBatch batch;
    batch.fromNode = registry_.nodeName();
    const std::size_t n = std::min(options_.maxBatch, pending_.size());
    batch.spans.assign(pending_.begin(),
                       pending_.begin() + static_cast<std::ptrdiff_t>(n));
    try {
      callWithPolicy(transport_, sink_, batch.encode(), options_.rpc);
    } catch (const Error&) {
      registry_.counter(kShipFailures).inc();
      return;  // keep the batch pending; retry next tick
    }
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(n));
    shipped_ += n;
    registry_.counter(kShipped).inc(n);
  }
}

std::uint64_t SpanShipper::spansShipped() const {
  MutexLock lock(mu_);
  return shipped_;
}

}  // namespace dpss::cluster
