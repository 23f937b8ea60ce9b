// Poll-driven TCP RPC server.
//
// Threading model (documented in DESIGN.md §9):
//  * One event-loop thread owns every socket: it polls the listen socket,
//    a wakeup channel, and all live connections; reads feed per-
//    connection FrameDecoders; writes drain per-connection outboxes.
//  * Complete request frames are dispatched to a fixed ThreadPool; the
//    worker runs the bound RpcHandler (with the caller's trace context
//    installed) and enqueues the response — or a typed kError frame —
//    back onto the connection's outbox via the wakeup channel. The loop
//    never runs user code, so a slow handler stalls one worker, not the
//    whole server.
//  * Connections are identified by id; a worker finishing after its
//    connection died simply drops the response.
//
// One server hosts several logical nodes (bind("broker", ...),
// bind("broker.ctl", ...)): the request frame carries the target name.
// Malformed frames (oversized, unknown kind, truncated payload) poison
// only their connection — the server logs, closes it and keeps serving.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "cluster/transport.h"
#include "common/clock.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "net/frame.h"
#include "net/socket.h"

namespace dpss::net {

struct NetServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = pick a free port (see NetServer::port())
  std::size_t workerThreads = 8;
};

class NetServer {
 public:
  NetServer(Clock& clock, NetServerOptions options = {});
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Registers/replaces the handler serving logical node `nodeName`.
  void bind(const std::string& nodeName, cluster::RpcHandler handler);
  /// Stops routing to `nodeName`, then waits until no worker is still
  /// inside its handler, so whatever the handler captured may die as
  /// soon as this returns. Must not be called from that handler itself.
  void unbind(const std::string& nodeName);
  bool serves(const std::string& nodeName) const;

  /// Starts listening + the event loop. Throws Unavailable when the
  /// port cannot be bound. Idempotent.
  void start();
  /// Stops the loop, closes every connection, joins workers.
  void stop();

  /// The bound port (valid after start()).
  std::uint16_t port() const;

  /// Live connection count (event-loop snapshot, for tests).
  std::size_t connectionCount() const;

 private:
  struct Conn {
    Fd fd;
    FrameDecoder decoder;
    std::deque<std::string> outbox;  // encoded frames awaiting write
    std::size_t outboxOffset = 0;    // bytes of outbox.front() already sent
  };

  void loop();
  void wake();
  void handleRequest(std::uint64_t connId, Frame request);
  void queueResponse(std::uint64_t connId, std::string encodedFrame);
  bool drainReadable(std::uint64_t connId, Conn& conn);
  bool drainWritable(Conn& conn);

  Clock& clock_;
  NetServerOptions options_;

  mutable Mutex mu_;
  bool running_ DPSS_GUARDED_BY(mu_) = false;
  std::map<std::string, cluster::RpcHandler> handlers_ DPSS_GUARDED_BY(mu_);
  // nodeName -> handler calls running on the pool (absent = none).
  std::map<std::string, std::size_t> inFlight_ DPSS_GUARDED_BY(mu_);
  CondVar handlerDone_;
  // connId -> encoded frames queued by workers, pulled by the loop.
  std::map<std::uint64_t, std::deque<std::string>> pending_
      DPSS_GUARDED_BY(mu_);
  std::size_t connectionCount_ DPSS_GUARDED_BY(mu_) = 0;

  Fd listenFd_;        // loop thread + start()/stop()
  Fd wakeRead_;        // loop side of the wakeup channel
  Fd wakeWrite_;       // worker side
  std::thread loopThread_;
  std::shared_ptr<ThreadPool> pool_;
  // Loop-thread-only state (no lock needed): live connections by id.
  std::map<std::uint64_t, Conn> conns_;
  std::uint64_t nextConnId_ = 1;
};

}  // namespace dpss::net
