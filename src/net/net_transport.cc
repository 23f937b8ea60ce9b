#include "net/net_transport.h"

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dpss::net {

namespace {

/// Per-op round-trip latency seen by the caller, one histogram per rpc
/// tag (first request byte).
obs::MetricId rpcHistogram(std::uint8_t opTag) {
  static const obs::MetricId ids[] = {
      obs::internHistogram("net.rpc.call_ns", {{"op", "other"}}),
      obs::internHistogram("net.rpc.call_ns", {{"op", "query_segment"}}),
      obs::internHistogram("net.rpc.call_ns", {{"op", "pss_info"}}),
      obs::internHistogram("net.rpc.call_ns", {{"op", "pss_search"}}),
      // Tag 4 is retired; its slot aliases "other".
      obs::internHistogram("net.rpc.call_ns", {{"op", "other"}}),
      obs::internHistogram("net.rpc.call_ns", {{"op", "broker_query"}}),
      obs::internHistogram("net.rpc.call_ns", {{"op", "broker_search"}}),
      obs::internHistogram("net.rpc.call_ns", {{"op", "substrate"}}),
      obs::internHistogram("net.rpc.call_ns", {{"op", "control"}}),
  };
  return opTag >= 1 && opTag <= 8 ? ids[opTag] : ids[0];
}

}  // namespace

NetTransport::NetTransport(Clock& clock, NetTransportOptions options)
    : clock_(clock),
      server_(clock, options.server),
      client_(clock, options.client) {}

NetTransport::~NetTransport() { stop(); }

void NetTransport::start() { server_.start(); }

void NetTransport::stop() {
  server_.stop();
  client_.closeIdle();
}

void NetTransport::addPeer(const std::string& nodeName,
                           const std::string& hostPort) {
  Endpoint ep = Endpoint::parse(hostPort);
  MutexLock lock(mu_);
  peers_[nodeName] = std::move(ep);
}

void NetTransport::removePeer(const std::string& nodeName) {
  MutexLock lock(mu_);
  peers_.erase(nodeName);
}

void NetTransport::setPeerResolver(PeerResolver resolver) {
  MutexLock lock(mu_);
  resolver_ = std::move(resolver);
}

void NetTransport::bind(const std::string& nodeName,
                        cluster::RpcHandler handler) {
  server_.bind(nodeName, std::move(handler));
}

void NetTransport::unbind(const std::string& nodeName) {
  server_.unbind(nodeName);
}

bool NetTransport::reachable(const std::string& nodeName) const {
  if (server_.serves(nodeName)) return true;
  PeerResolver resolver;
  {
    MutexLock lock(mu_);
    if (peers_.count(nodeName) > 0) return true;
    resolver = resolver_;
  }
  return resolver && resolver(nodeName).has_value();
}

Endpoint NetTransport::endpointFor(const std::string& nodeName) const {
  {
    MutexLock lock(mu_);
    const auto it = peers_.find(nodeName);
    if (it != peers_.end()) return it->second;
  }
  if (server_.serves(nodeName)) {
    // Local logical node: loop back through the real socket, keeping the
    // wire honest even for same-process calls.
    return Endpoint{"127.0.0.1", server_.port()};
  }
  // Unknown at launch: maybe a runtime-joined node whose announcement
  // carries an endpoint. Copy the resolver out so it runs unlocked (it
  // typically reads a registry mirror with its own mutex).
  PeerResolver resolver;
  {
    MutexLock lock(mu_);
    resolver = resolver_;
  }
  if (resolver) {
    if (const auto hostPort = resolver(nodeName)) {
      return Endpoint::parse(*hostPort);
    }
  }
  throw Unavailable("no route to node: " + nodeName);
}

std::string NetTransport::call(const std::string& nodeName,
                               const std::string& request) {
  const Endpoint ep = endpointFor(nodeName);
  const std::uint8_t opTag =
      request.empty() ? 0 : static_cast<std::uint8_t>(request[0]);
  obs::ScopedTimer timer(
      obs::currentRegistry().histogram(rpcHistogram(opTag)));

  // Same envelope as the in-process Transport: [str target][u8 hasTrace]
  // [trace?][raw body]. The target rides inside the frame because one
  // server socket hosts several logical nodes.
  ByteWriter payload;
  payload.str(nodeName);
  const obs::TraceContext ctx = obs::currentTraceContext();
  payload.u8(ctx.active() ? 1 : 0);
  if (ctx.active()) ctx.serialize(payload);
  payload.raw(request);
  return client_.call(ep, payload.take());
}

}  // namespace dpss::net
