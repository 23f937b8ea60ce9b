#include "net/server.h"

#include <poll.h>

#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dpss::net {

namespace {

const obs::MetricId kBytesIn = obs::internCounter("net.server.bytes_in");
const obs::MetricId kBytesOut = obs::internCounter("net.server.bytes_out");
const obs::MetricId kConnsOpen =
    obs::internGauge("net.server.connections_open");
const obs::MetricId kAccepts = obs::internCounter("net.server.accepts");
const obs::MetricId kAcceptErrors =
    obs::internCounter("net.server.accept_errors");
const obs::MetricId kReadErrors = obs::internCounter("net.server.read_errors");
const obs::MetricId kWriteErrors =
    obs::internCounter("net.server.write_errors");
const obs::MetricId kProtocolErrors =
    obs::internCounter("net.server.protocol_errors");
const obs::MetricId kRequests = obs::internCounter("net.server.requests");

/// Per-op handler latency: one histogram per rpc tag (the first body
/// byte), interned once.
obs::MetricId handleHistogram(std::uint8_t opTag) {
  static const obs::MetricId ids[] = {
      obs::internHistogram("net.server.handle_ns", {{"op", "other"}}),
      obs::internHistogram("net.server.handle_ns", {{"op", "query_segment"}}),
      obs::internHistogram("net.server.handle_ns", {{"op", "pss_info"}}),
      obs::internHistogram("net.server.handle_ns", {{"op", "pss_search"}}),
      // Tag 4 is retired; its slot aliases "other".
      obs::internHistogram("net.server.handle_ns", {{"op", "other"}}),
      obs::internHistogram("net.server.handle_ns", {{"op", "broker_query"}}),
      obs::internHistogram("net.server.handle_ns", {{"op", "broker_search"}}),
      obs::internHistogram("net.server.handle_ns", {{"op", "substrate"}}),
      obs::internHistogram("net.server.handle_ns", {{"op", "control"}}),
      obs::internHistogram("net.server.handle_ns", {{"op", "spans"}}),
  };
  return opTag >= 1 && opTag <= 9 ? ids[opTag] : ids[0];
}

}  // namespace

NetServer::NetServer(Clock& clock, NetServerOptions options)
    : clock_(clock), options_(std::move(options)) {}

NetServer::~NetServer() { stop(); }

void NetServer::bind(const std::string& nodeName, cluster::RpcHandler handler) {
  MutexLock lock(mu_);
  handlers_[nodeName] = std::move(handler);
}

void NetServer::unbind(const std::string& nodeName) {
  MutexLock lock(mu_);
  handlers_.erase(nodeName);
  while (inFlight_.count(nodeName) > 0) handlerDone_.wait(mu_);
}

bool NetServer::serves(const std::string& nodeName) const {
  MutexLock lock(mu_);
  return handlers_.count(nodeName) > 0;
}

void NetServer::start() {
  {
    MutexLock lock(mu_);
    if (running_) return;
    running_ = true;
  }
  listenFd_ = listenOn(options_.host, options_.port);
  socketPair(&wakeRead_, &wakeWrite_);
  pool_ = std::make_shared<ThreadPool>(
      options_.workerThreads == 0 ? 1 : options_.workerThreads);
  loopThread_ = std::thread([this] { loop(); });
}

void NetServer::stop() {
  {
    MutexLock lock(mu_);
    if (!running_) return;
    running_ = false;
  }
  wake();
  if (loopThread_.joinable()) loopThread_.join();
  // Workers may still be inside handlers; queueResponse drops their
  // output once running_ is false. Destroying the pool joins them.
  pool_.reset();
  obs::currentRegistry().gauge(kConnsOpen).add(
      -static_cast<std::int64_t>(conns_.size()));
  conns_.clear();
  listenFd_.reset();
  wakeRead_.reset();
  wakeWrite_.reset();
  MutexLock lock(mu_);
  pending_.clear();
  connectionCount_ = 0;
}

std::uint16_t NetServer::port() const { return boundPort(listenFd_); }

std::size_t NetServer::connectionCount() const {
  MutexLock lock(mu_);
  return connectionCount_;
}

void NetServer::wake() {
  try {
    sendNow(wakeWrite_, "w");
  } catch (const Error&) {
    // stop() racing a worker; the loop is exiting anyway.
  }
}

void NetServer::queueResponse(std::uint64_t connId, std::string encodedFrame) {
  {
    MutexLock lock(mu_);
    if (!running_) return;
    pending_[connId].push_back(std::move(encodedFrame));
  }
  wake();
}

void NetServer::handleRequest(std::uint64_t connId, Frame request) {
  obs::currentRegistry().counter(kRequests).inc();
  // shared_ptr keeps the pool's task queue valid even if stop() races.
  pool_->submit([this, connId, request = std::move(request)]() mutable {
    std::string payload;
    std::uint8_t kind = frame::kResponse;
    std::string target;
    bool counted = false;
    try {
      ByteReader r(request.payload);
      target = r.str();
      cluster::RpcHandler handler;
      {
        MutexLock lock(mu_);
        const auto it = handlers_.find(target);
        if (it == handlers_.end()) {
          throw Unavailable("no route to node: " + target);
        }
        handler = it->second;
        // Counted until the handler returns: unbind() waits it out.
        ++inFlight_[target];
        counted = true;
      }
      // Same envelope the in-process transport builds: optional trace
      // context, then the raw rpc body the handler sees.
      obs::TraceContext remote;
      if (r.u8() == 1) remote = obs::TraceContext::deserialize(r);
      const std::string body(r.raw(r.remaining()));
      const std::uint8_t opTag = body.empty() ? 0 : static_cast<std::uint8_t>(
                                                        body[0]);
      obs::TraceScope scope(remote);
      obs::ScopedTimer timer(
          obs::currentRegistry().histogram(handleHistogram(opTag)));
      payload = handler(body);
    } catch (const std::exception& e) {
      kind = frame::kError;
      payload = encodeErrorPayload(e);
    }
    if (counted) {
      MutexLock lock(mu_);
      const auto it = inFlight_.find(target);
      if (--it->second == 0) inFlight_.erase(it);
      handlerDone_.notify_all();
    }
    queueResponse(connId,
                  encodeFrame(Frame{kind, request.requestId,
                                    std::move(payload)}));
  });
}

bool NetServer::drainReadable(std::uint64_t connId, Conn& conn) {
  try {
    for (;;) {
      bool peerClosed = false;
      const std::string bytes = recvNow(conn.fd, &peerClosed);
      if (!bytes.empty()) {
        obs::currentRegistry().counter(kBytesIn).inc(bytes.size());
        conn.decoder.feed(bytes);
      }
      while (auto f = conn.decoder.next()) {
        if (f->kind != frame::kRequest) {
          throw CorruptData("unexpected frame kind from client: " +
                            std::to_string(f->kind));
        }
        handleRequest(connId, std::move(*f));
      }
      if (peerClosed) return false;
      if (bytes.empty()) return true;  // EAGAIN: wait for the next poll
    }
  } catch (const CorruptData& e) {
    obs::currentRegistry().counter(kProtocolErrors).inc();
    DPSS_LOG(Warn) << "net server: protocol error, closing connection: "
                   << e.what();
    return false;
  } catch (const Error& e) {
    obs::currentRegistry().counter(kReadErrors).inc();
    DPSS_LOG(Warn) << "net server: read error: " << e.what();
    return false;
  }
}

bool NetServer::drainWritable(Conn& conn) {
  try {
    while (!conn.outbox.empty()) {
      const std::string& front = conn.outbox.front();
      const std::size_t n = sendNow(
          conn.fd, std::string_view(front).substr(conn.outboxOffset));
      if (n == 0) return true;  // socket full; poll for POLLOUT
      obs::currentRegistry().counter(kBytesOut).inc(n);
      conn.outboxOffset += n;
      if (conn.outboxOffset == front.size()) {
        conn.outbox.pop_front();
        conn.outboxOffset = 0;
      }
    }
    return true;
  } catch (const Error& e) {
    obs::currentRegistry().counter(kWriteErrors).inc();
    DPSS_LOG(Warn) << "net server: write error: " << e.what();
    return false;
  }
}

void NetServer::loop() {
  std::vector<struct pollfd> pfds;
  std::vector<std::uint64_t> ids;  // ids[i] = connId of pfds[i], 0 = special
  for (;;) {
    {
      MutexLock lock(mu_);
      if (!running_) return;
      // Move worker responses into connection outboxes.
      for (auto& [connId, frames] : pending_) {
        const auto it = conns_.find(connId);
        if (it == conns_.end()) continue;  // connection died; drop
        for (auto& f : frames) it->second.outbox.push_back(std::move(f));
      }
      pending_.clear();
      connectionCount_ = conns_.size();
    }

    pfds.clear();
    ids.clear();
    pfds.push_back({listenFd_.get(), POLLIN, 0});
    ids.push_back(0);
    pfds.push_back({wakeRead_.get(), POLLIN, 0});
    ids.push_back(0);
    for (auto& [connId, conn] : conns_) {
      short events = POLLIN;
      if (!conn.outbox.empty()) events |= POLLOUT;
      pfds.push_back({conn.fd.get(), events, 0});
      ids.push_back(connId);
    }

    const int rc = ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/200);
    if (rc < 0 && errno != EINTR) {
      DPSS_LOG(Error) << "net server: poll failed, shutting down loop";
      return;
    }
    if (rc <= 0) continue;

    // Wakeup channel: drain and fall through to the outbox sweep above.
    if ((pfds[1].revents & POLLIN) != 0) {
      bool closed = false;
      while (!recvNow(wakeRead_, &closed).empty()) {
      }
    }

    // New connections.
    if ((pfds[0].revents & POLLIN) != 0) {
      for (;;) {
        Fd accepted;
        try {
          accepted = acceptOne(listenFd_);
        } catch (const Error& e) {
          obs::currentRegistry().counter(kAcceptErrors).inc();
          DPSS_LOG(Warn) << "net server: accept error: " << e.what();
          break;
        }
        if (!accepted.valid()) break;
        obs::currentRegistry().counter(kAccepts).inc();
        obs::currentRegistry().gauge(kConnsOpen).add(1);
        Conn conn;
        conn.fd = std::move(accepted);
        conns_.emplace(nextConnId_++, std::move(conn));
      }
    }

    // Connection I/O.
    for (std::size_t i = 2; i < pfds.size(); ++i) {
      const std::uint64_t connId = ids[i];
      const auto it = conns_.find(connId);
      if (it == conns_.end()) continue;
      bool alive = true;
      if ((pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (pfds[i].revents & POLLIN) == 0) {
        alive = false;
      }
      if (alive && (pfds[i].revents & POLLIN) != 0) {
        alive = drainReadable(connId, it->second);
      }
      if (alive && (pfds[i].revents & POLLOUT) != 0) {
        alive = drainWritable(it->second);
      }
      if (!alive) {
        obs::currentRegistry().gauge(kConnsOpen).add(-1);
        conns_.erase(it);
        MutexLock lock(mu_);
        pending_.erase(connId);
      }
    }
  }
}

}  // namespace dpss::net
