// dpss_node — one cluster role per OS process, wired over TCP.
//
//   dpss_node --role coordinator --name coordinator --listen 127.0.0.1:8400
//   dpss_node --role historical  --name hist-0 --listen 127.0.0.1:8401
//             --peer substrate=127.0.0.1:8400
//   dpss_node --role broker      --name broker --listen 127.0.0.1:8404
//             --peer substrate=127.0.0.1:8400 --peer hist-0=127.0.0.1:8401
//
// By default the coordinator process hosts the authoritative substrates
// (registry, metadata store, deep storage) behind a SubstrateService;
// every other role reaches them through Remote* proxies, so the node
// classes themselves run completely unchanged. For coordinator failover
// the substrates move to their own process (--role substrate) and any
// number of coordinators run against it with --peer substrate=...; they
// elect a leader through the registry and a SIGKILLed leader is replaced
// within its lease (DESIGN.md §13).
//
// Peer routing is static for launch-time nodes (--peer flags), dynamic
// for runtime-joined ones: nodes started with --advertise publish their
// endpoint in their announcement, and processes holding a registry
// mirror resolve unknown callees through it (NetTransport resolver). See
// README "Multi-process quickstart" / "Scaling the cluster" and DESIGN.md
// §9, §13.
//
// Each process also binds "<name>.ctl" (rpc::kControl) for out-of-band
// driving: ping, document loading (historical), event ingestion
// (realtime), decommission/drain-state (historical), and graceful
// shutdown. A draining historical exits on its own once the coordinator
// marks the drain complete.
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/broker_node.h"
#include "cluster/coordinator_node.h"
#include "cluster/historical_node.h"
#include "cluster/message_queue.h"
#include "cluster/metastore.h"
#include "cluster/metastore_journal.h"
#include "cluster/names.h"
#include "cluster/realtime_node.h"
#include "cluster/registry.h"
#include "cluster/rpc_policy.h"
#include "cluster/span_ship.h"
#include "cluster/subscription_broker.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/logging.h"
#include "net/admin_plane.h"
#include "net/control.h"
#include "net/http_admin.h"
#include "net/net_transport.h"
#include "net/socket.h"
#include "net/substrate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_assembly.h"
#include "storage/deep_storage.h"
#include "storage/schema.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void onSignal(int) { g_stop = 1; }

struct Flags {
  std::string role;
  std::string name;
  std::string listenHost = "127.0.0.1";
  std::uint16_t listenPort = 0;
  std::vector<std::pair<std::string, std::string>> peers;  // name -> host:port
  dpss::TimeMs tickMs = 50;
  dpss::TimeMs leaseMs = 5'000;    // coordinator: substrate lease
  dpss::TimeMs syncMs = 100;       // workers: mirror sync period
  dpss::TimeMs heartbeatMs = 500;  // workers: lease heartbeat period
  std::size_t brokerCache = 4096;  // 0 disables the result cache
  std::size_t rpcAttempts = 3;
  dpss::TimeMs rpcBackoffMs = 50;
  dpss::TimeMs rpcDeadlineMs = 5'000;
  // realtime role
  std::string topic = "events";
  std::size_t partition = 0;
  std::string dataSource = "rt-events";
  // observability plane
  int adminPort = -1;  // -1 = no admin server; 0 = pick a free port
  std::string traceSink = "coordinator";  // "" disables span shipping
  dpss::TimeMs slowQueryMs = 500;         // broker slow-query threshold
  // elastic membership (DESIGN.md §13)
  std::string metaDir;     // substrate/coordinator: journal+snapshot dir
  std::string advertise;   // historical: announced endpoint ("" = listen)
  std::size_t movesPerCycle = 8;      // coordinator rebalancer budget
  std::size_t maxPendingLoads = 4;    // coordinator per-node load cap
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "dpss_node: " << error << "\n"
            << "usage: dpss_node --role "
               "substrate|coordinator|historical|realtime|broker"
            << " --name NAME --listen HOST:PORT\n"
            << "  [--peer NAME=HOST:PORT]... [--tick-ms N] [--lease-ms N]\n"
            << "  [--sync-ms N] [--heartbeat-ms N] [--broker-cache N]\n"
            << "  [--rpc-attempts N] [--rpc-backoff-ms N] [--rpc-deadline-ms "
               "N]\n"
            << "  [--topic T --partition P --data-source DS] [--verbose]\n"
            << "  [--admin-port P (0 = auto)] [--trace-sink NODE ('' off)]\n"
            << "  [--slow-query-ms N] [--meta-dir DIR] [--advertise HOST:PORT]\n"
            << "  [--moves-per-cycle N] [--max-pending-loads N]\n";
  std::exit(2);
}

Flags parseFlags(int argc, char** argv) {
  Flags f;
  const auto next = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--role") {
      f.role = next(i);
    } else if (arg == "--name") {
      f.name = next(i);
    } else if (arg == "--listen") {
      const dpss::net::Endpoint ep = dpss::net::Endpoint::parse(next(i));
      f.listenHost = ep.host;
      f.listenPort = ep.port;
    } else if (arg == "--peer") {
      const std::string v = next(i);
      const auto eq = v.find('=');
      if (eq == std::string::npos) usage("--peer wants NAME=HOST:PORT");
      f.peers.emplace_back(v.substr(0, eq), v.substr(eq + 1));
    } else if (arg == "--tick-ms") {
      f.tickMs = std::stol(next(i));
    } else if (arg == "--lease-ms") {
      f.leaseMs = std::stol(next(i));
    } else if (arg == "--sync-ms") {
      f.syncMs = std::stol(next(i));
    } else if (arg == "--heartbeat-ms") {
      f.heartbeatMs = std::stol(next(i));
    } else if (arg == "--broker-cache") {
      f.brokerCache = std::stoul(next(i));
    } else if (arg == "--rpc-attempts") {
      f.rpcAttempts = std::stoul(next(i));
    } else if (arg == "--rpc-backoff-ms") {
      f.rpcBackoffMs = std::stol(next(i));
    } else if (arg == "--rpc-deadline-ms") {
      f.rpcDeadlineMs = std::stol(next(i));
    } else if (arg == "--topic") {
      f.topic = next(i);
    } else if (arg == "--partition") {
      f.partition = std::stoul(next(i));
    } else if (arg == "--data-source") {
      f.dataSource = next(i);
    } else if (arg == "--admin-port") {
      f.adminPort = std::stoi(next(i));
    } else if (arg == "--trace-sink") {
      f.traceSink = next(i);
    } else if (arg == "--slow-query-ms") {
      f.slowQueryMs = std::stol(next(i));
    } else if (arg == "--meta-dir") {
      f.metaDir = next(i);
    } else if (arg == "--advertise") {
      f.advertise = next(i);
    } else if (arg == "--moves-per-cycle") {
      f.movesPerCycle = std::stoul(next(i));
    } else if (arg == "--max-pending-loads") {
      f.maxPendingLoads = std::stoul(next(i));
    } else if (arg == "--verbose") {
      dpss::setLogLevel(dpss::LogLevel::kInfo);
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (f.role.empty()) usage("--role is required");
  if (f.name.empty()) usage("--name is required");
  if (f.listenPort == 0) usage("--listen with an explicit port is required");
  return f;
}

dpss::cluster::RpcPolicy rpcPolicy(const Flags& f) {
  dpss::cluster::RpcPolicy policy;
  policy.maxAttempts = f.rpcAttempts;
  policy.initialBackoffMs = f.rpcBackoffMs;
  policy.deadlineMs = f.rpcDeadlineMs;
  return policy;
}

dpss::net::RemoteRegistryOptions registryOptions(const Flags& f) {
  dpss::net::RemoteRegistryOptions opts;
  opts.syncIntervalMs = f.syncMs;
  opts.heartbeatIntervalMs = f.heartbeatMs;
  opts.rpc = rpcPolicy(f);
  return opts;
}

/// The fixed schema dpss_node's realtime role indexes (the realtime
/// pipeline example's ad-event shape); events arrive over the control
/// channel as storage::encodeInputRow payloads matching it.
dpss::storage::Schema realtimeSchema() {
  dpss::storage::Schema s;
  s.dimensions = {"publisher", "country"};
  s.metrics = {{"impressions", dpss::storage::MetricType::kLong},
               {"revenue", dpss::storage::MetricType::kDouble}};
  return s;
}

void announceReady(const Flags& f, dpss::net::NetTransport& transport) {
  std::cout << "dpss_node " << f.role << " '" << f.name << "' listening on "
            << f.listenHost << ":" << transport.port() << std::endl;
}

/// Starts the HTTP admin server when --admin-port was given (0 picks a
/// free port) and prints the bound port on its own parseable line.
std::unique_ptr<dpss::net::HttpAdminServer> startAdmin(
    const Flags& f, dpss::Clock& clock, dpss::net::AdminPlane plane) {
  if (f.adminPort < 0) return nullptr;
  dpss::net::HttpAdminOptions opts;
  opts.host = f.listenHost;
  opts.port = static_cast<std::uint16_t>(f.adminPort);
  auto server = std::make_unique<dpss::net::HttpAdminServer>(clock, opts);
  dpss::net::bindAdminEndpoints(*server, std::move(plane));
  server->start();
  std::cout << "dpss_node '" << f.name << "' admin on " << f.listenHost << ":"
            << server->port() << std::endl;
  return server;
}

/// The span shipper every worker role runs from its tick: drains the
/// node registry's span ring toward --trace-sink (default the
/// coordinator). Disabled with --trace-sink ''.
std::optional<dpss::cluster::SpanShipper> makeShipper(
    const Flags& f, dpss::obs::MetricsRegistry& registry,
    dpss::net::NetTransport& transport) {
  if (f.traceSink.empty()) return std::nullopt;
  dpss::cluster::SpanShipper::Options opts;
  opts.rpc = rpcPolicy(f);
  return std::make_optional<dpss::cluster::SpanShipper>(registry, transport,
                                                        f.traceSink, opts);
}

void mainLoop(const Flags& f, dpss::Clock& clock,
              const std::function<void()>& tick,
              const std::function<bool()>& done = nullptr) {
  while (g_stop == 0 && !dpss::net::shutdownRequested()) {
    tick();
    if (done && done()) return;
    clock.sleepFor(f.tickMs);
  }
}

/// Unbinds a role's control channel, and `alsoServed`, when it leaves
/// scope. Unbinding waits out the handler calls already running, so a
/// role declares this right after the objects its handlers capture: it
/// stops serving before they die, on a normal return and on an exception
/// alike, while pool threads would otherwise still answer the RPCs other
/// nodes send as they shut down.
class ServingScope {
 public:
  ServingScope(dpss::net::NetTransport& transport, std::string node,
               std::vector<std::string> alsoServed = {})
      : transport_(transport),
        node_(std::move(node)),
        alsoServed_(std::move(alsoServed)) {}
  ~ServingScope() {
    for (const auto& name : alsoServed_) transport_.unbind(name);
    dpss::net::unbindControl(transport_, node_);
  }
  ServingScope(const ServingScope&) = delete;
  ServingScope& operator=(const ServingScope&) = delete;

 private:
  dpss::net::NetTransport& transport_;
  std::string node_;
  std::vector<std::string> alsoServed_;
};

/// The authoritative metadata store: journaled + snapshotted when
/// --meta-dir was given (survives a process restart), in-memory
/// otherwise.
std::unique_ptr<dpss::cluster::MetaStore> makeMetaStore(const Flags& f) {
  if (f.metaDir.empty()) return std::make_unique<dpss::cluster::MetaStore>();
  return std::make_unique<dpss::cluster::JournaledMetaStore>(f.metaDir);
}

/// True when `name` is wired to another process. A peer entry that points
/// back at this process's own listen endpoint does not count: launcher
/// scripts hand every node the same wiring map, so a standalone
/// coordinator routinely sees "substrate=<its own address>".
bool hasRemotePeer(const Flags& f, const std::string& name) {
  for (const auto& [peer, hostPort] : f.peers) {
    if (peer != name) continue;
    try {
      const dpss::net::Endpoint ep = dpss::net::Endpoint::parse(hostPort);
      if (ep.host == f.listenHost && ep.port == f.listenPort) continue;
    } catch (const dpss::Error&) {
    }
    return true;
  }
  return false;
}

/// Routes callees unknown at launch (runtime scale-out) through their
/// registry announcements. The caller must clear the resolver before
/// `registry` dies.
void installResolver(dpss::net::NetTransport& transport,
                     dpss::cluster::Registry& registry) {
  transport.setPeerResolver(
      [&registry](const std::string& node) -> std::optional<std::string> {
        const auto data =
            registry.getData(dpss::cluster::paths::nodeAnnouncement(node));
        if (!data) return std::nullopt;
        const std::string ep = dpss::cluster::paths::announceEndpoint(*data);
        if (ep.empty()) return std::nullopt;
        return ep;
      });
}

/// The realtime role's /statusz subscription table (one entry per hosted
/// standing query), consumed by `dpss_dump.py --subscriptions`.
std::string subscriptionStatusFields(dpss::cluster::RealtimeNode& node) {
  std::string out = "\"subscriptions\":[";
  bool first = true;
  for (const auto& s : node.subscriptionStatus()) {
    if (!first) out += ",";
    first = false;
    out += "{\"id\":" + std::to_string(s.id);
    out += ",\"active\":" + std::string(s.active ? "true" : "false");
    out += ",\"age_ms\":" + std::to_string(s.ageMs);
    out += ",\"fill_percent\":" + std::to_string(s.fillPercent);
    out += ",\"documents_seen\":" + std::to_string(s.documentsSeen);
    out += ",\"snapshots_sealed\":" + std::to_string(s.snapshotsSealed);
    out += ",\"pending_snapshots\":" + std::to_string(s.pendingSnapshots);
    out += ",\"acked_seq\":" + std::to_string(s.ackedSeq);
    out += "}";
  }
  out += "]";
  return out;
}

/// The broker's /statusz view of the registered standing queries.
std::string subscriptionBrokerStatusFields(
    dpss::cluster::SubscriptionBroker& subs, dpss::Clock& clock) {
  const dpss::TimeMs now = clock.nowMs();
  std::string out = "\"subscriptions\":[";
  bool first = true;
  for (const auto& s : subs.status()) {
    if (!first) out += ",";
    first = false;
    out += "{\"id\":" + std::to_string(s.id);
    out += ",\"doc_source\":\"" + s.docSource + "\"";
    out += ",\"age_ms\":" + std::to_string(now - s.createdMs);
    out += ",\"snapshots_collected\":" + std::to_string(s.snapshotsCollected);
    out += "}";
  }
  out += "],\"subscription_reconcile_rounds\":" +
         std::to_string(subs.reconcileRounds());
  return out;
}

/// The coordinator's role-specific /statusz section: election state plus
/// the most recent reconciliation cycle's rebalancer numbers.
std::string coordinatorStatusFields(dpss::cluster::CoordinatorNode& c) {
  const auto s = c.lastStats();
  std::string out;
  out += "\"leader\":" + std::string(s.leader ? "true" : "false");
  out += ",\"epoch\":" + std::to_string(s.epoch);
  out += ",\"rebalancer\":{";
  out += "\"activeNodes\":" + std::to_string(s.activeNodes);
  out += ",\"drainingNodes\":" + std::to_string(s.drainingNodes);
  out += ",\"imbalance\":" + std::to_string(s.imbalance);
  out += ",\"movesIssued\":" + std::to_string(s.movesIssued);
  out += ",\"throttledMoves\":" + std::to_string(s.throttledMoves);
  out += ",\"throttledLoads\":" + std::to_string(s.throttledLoads);
  out += ",\"totalLoads\":" + std::to_string(c.totalLoadsIssued());
  out += ",\"totalDrops\":" + std::to_string(c.totalDropsIssued());
  out += ",\"totalMoves\":" + std::to_string(c.totalMovesIssued());
  out += "}";
  return out;
}

/// Standalone substrate host for multi-coordinator deployments: the
/// registry, metadata store and deep storage live here so no coordinator
/// is special and a SIGKILLed leader loses nothing but its lease.
int runSubstrate(const Flags& f, dpss::Clock& clock,
                 dpss::net::NetTransport& transport) {
  dpss::cluster::Registry registry;
  auto metaStore = makeMetaStore(f);
  dpss::storage::MemoryDeepStorage deepStorage;
  dpss::net::SubstrateService substrate(registry, *metaStore, deepStorage,
                                        clock, f.leaseMs);
  transport.bind(dpss::net::kSubstrateNode, substrate.handler());
  dpss::net::bindControl(transport, f.name, "substrate", {});
  const ServingScope serving(transport, f.name, {dpss::net::kSubstrateNode});
  dpss::net::AdminPlane plane;
  plane.nodeName = f.name;
  plane.role = "substrate";
  plane.registry = &dpss::obs::globalRegistry();
  plane.leaseState = [] { return std::string("none"); };
  plane.liveSessions = [&substrate] { return substrate.liveSessionCount(); };
  plane.startNs = dpss::obs::nowNanos();
  auto admin = startAdmin(f, clock, std::move(plane));
  announceReady(f, transport);
  mainLoop(f, clock, [&] { substrate.sweepExpiredLeases(); });
  if (admin) admin->stop();
  return 0;
}

int runCoordinator(const Flags& f, dpss::Clock& clock,
                   dpss::net::NetTransport& transport) {
  // Two deployments share this role. Standalone (no substrate peer): this
  // process hosts the authoritative substrates, as the single-coordinator
  // topology always has. Standby-capable (--peer substrate=...): the
  // substrates live in a substrate process and several coordinators run
  // this same code against Remote* proxies, electing a leader among
  // themselves — the node class cannot tell the difference.
  const bool remoteSubstrate = hasRemotePeer(f, dpss::net::kSubstrateNode);
  std::unique_ptr<dpss::cluster::Registry> localRegistry;
  std::unique_ptr<dpss::cluster::MetaStore> localMeta;
  std::unique_ptr<dpss::storage::MemoryDeepStorage> localDeep;
  std::unique_ptr<dpss::net::SubstrateService> substrate;
  std::unique_ptr<dpss::net::RemoteRegistry> remoteRegistry;
  std::unique_ptr<dpss::net::RemoteMetaStore> remoteMeta;
  dpss::cluster::Registry* registry = nullptr;
  dpss::cluster::MetaStore* metaStore = nullptr;
  if (remoteSubstrate) {
    remoteRegistry = std::make_unique<dpss::net::RemoteRegistry>(
        transport, dpss::net::kSubstrateNode, registryOptions(f));
    remoteMeta = std::make_unique<dpss::net::RemoteMetaStore>(
        transport, dpss::net::kSubstrateNode, rpcPolicy(f));
    registry = remoteRegistry.get();
    metaStore = remoteMeta.get();
  } else {
    localRegistry = std::make_unique<dpss::cluster::Registry>();
    localMeta = makeMetaStore(f);
    localDeep = std::make_unique<dpss::storage::MemoryDeepStorage>();
    substrate = std::make_unique<dpss::net::SubstrateService>(
        *localRegistry, *localMeta, *localDeep, clock, f.leaseMs);
    transport.bind(dpss::net::kSubstrateNode, substrate->handler());
    registry = localRegistry.get();
    metaStore = localMeta.get();
  }
  dpss::cluster::CoordinatorOptions copts;
  copts.maxMovesPerCycle = f.movesPerCycle;
  copts.maxPendingLoadsPerNode = f.maxPendingLoads;
  dpss::cluster::CoordinatorNode coordinator(f.name, *registry, *metaStore,
                                             clock, copts);
  // The coordinator is the cluster's trace sink: workers ship their span
  // batches here (rpc::kSpans) and /tracez serves the assembled trees.
  dpss::obs::TraceCollector collector;
  transport.bind(f.name, [&collector](const std::string& req) {
    return dpss::cluster::handleSpansRpc(collector, req);
  });
  dpss::net::bindControl(transport, f.name, "coordinator", {});
  const ServingScope serving(transport, f.name,
                             {dpss::net::kSubstrateNode, f.name});
  dpss::net::AdminPlane plane;
  plane.nodeName = f.name;
  plane.role = "coordinator";
  // The coordinator's own runOnce() runs outside any ScopedRegistry, so
  // its metrics live in the process-global registry.
  plane.registry = &dpss::obs::globalRegistry();
  plane.traces = &collector;
  plane.leaseState = [] { return std::string("none"); };
  if (substrate) {
    plane.liveSessions = [&substrate] {
      return substrate->liveSessionCount();
    };
  }
  plane.statusFields = [&coordinator] {
    return coordinatorStatusFields(coordinator);
  };
  plane.startNs = dpss::obs::nowNanos();
  auto admin = startAdmin(f, clock, std::move(plane));
  if (remoteRegistry) remoteRegistry->start();
  announceReady(f, transport);
  // Local spans (coordinator.* and net.server handlers) feed the
  // collector directly; there is no point shipping them over TCP.
  std::uint64_t spanCursor = 0;
  mainLoop(f, clock, [&] {
    coordinator.runOnce();
    if (substrate) substrate->sweepExpiredLeases();
    auto spans = dpss::obs::globalRegistry().spans().collectSince(&spanCursor);
    if (!spans.empty()) collector.add(std::move(spans));
  });
  if (remoteRegistry) remoteRegistry->stop();
  if (admin) admin->stop();
  return 0;
}

int runHistorical(const Flags& f, dpss::Clock& clock,
                  dpss::net::NetTransport& transport) {
  dpss::net::RemoteRegistry registry(transport, dpss::net::kSubstrateNode,
                                     registryOptions(f));
  dpss::net::RemoteDeepStorage deepStorage(transport,
                                           dpss::net::kSubstrateNode,
                                           rpcPolicy(f));
  dpss::cluster::HistoricalNodeOptions nodeOptions;
  // Announce a dialable endpoint so processes that did not know this node
  // at launch (runtime scale-out) can resolve a route to it.
  nodeOptions.advertiseEndpoint =
      f.advertise.empty()
          ? f.listenHost + ":" + std::to_string(transport.port())
          : f.advertise;
  dpss::cluster::HistoricalNode node(f.name, registry, deepStorage, transport,
                                     nodeOptions);
  dpss::net::ControlTargets targets;
  targets.historical = &node;
  dpss::net::bindControl(transport, f.name, "historical", targets);
  const ServingScope serving(transport, f.name);
  node.start();
  registry.start();
  dpss::net::AdminPlane plane;
  plane.nodeName = f.name;
  plane.role = "historical";
  plane.registry = &node.metrics();
  plane.leaseState = [&node] {
    return std::string(node.registryLeaseActive() ? "active" : "expired");
  };
  plane.servedSegments = [&node] {
    std::vector<std::string> out;
    for (const auto& id : node.servedSegments()) out.push_back(id.toString());
    return out;
  };
  plane.statusFields = [&node] {
    std::string out;
    out += "\"pending_loads\":" + std::to_string(node.pendingLoads());
    out += ",\"drain\":{\"draining\":";
    out += node.draining() ? "true" : "false";
    out += ",\"complete\":";
    out += node.drainComplete() ? "true" : "false";
    out += "}";
    return out;
  };
  plane.startNs = dpss::obs::nowNanos();
  auto admin = startAdmin(f, clock, std::move(plane));
  auto shipper = makeShipper(f, node.metrics(), transport);
  announceReady(f, transport);
  mainLoop(
      f, clock,
      [&] {
        node.tick();
        if (shipper) shipper->tick();
      },
      // A drained node has nothing left to serve: deregister and exit so
      // the operator (or launcher) can reclaim the process.
      [&node] { return node.drainComplete(); });
  if (node.drainComplete()) {
    std::cout << "dpss_node '" << f.name << "' drain complete, exiting"
              << std::endl;
  }
  registry.stop();
  node.stop();
  if (admin) admin->stop();
  return 0;
}

int runRealtime(const Flags& f, dpss::Clock& clock,
                dpss::net::NetTransport& transport) {
  dpss::net::RemoteRegistry registry(transport, dpss::net::kSubstrateNode,
                                     registryOptions(f));
  dpss::net::RemoteMetaStore metaStore(transport, dpss::net::kSubstrateNode,
                                       rpcPolicy(f));
  dpss::net::RemoteDeepStorage deepStorage(transport,
                                           dpss::net::kSubstrateNode,
                                           rpcPolicy(f));
  // The queue is process-local — the node consumes its own partition's
  // log, like a Kafka consumer colocated with its broker — and the
  // control channel is its producer.
  dpss::cluster::MessageQueue queue;
  queue.createTopic(f.topic, f.partition + 1);
  dpss::cluster::NodeDisk disk;
  dpss::cluster::RealtimeNode node(f.name, registry, queue, f.topic,
                                   f.partition, deepStorage, metaStore,
                                   transport, clock, realtimeSchema(),
                                   f.dataSource, disk);
  dpss::net::ControlTargets targets;
  targets.queue = &queue;
  targets.topic = f.topic;
  targets.partition = f.partition;
  dpss::net::bindControl(transport, f.name, "realtime", targets);
  const ServingScope serving(transport, f.name);
  // A process restarted right after a crash races its dead predecessor's
  // ephemeral announcement: wait out the lease sweep instead of dying.
  for (int attempt = 0;; ++attempt) {
    try {
      node.start();
      break;
    } catch (const dpss::AlreadyExists&) {
      if (attempt >= 40 || g_stop != 0) throw;
      clock.sleepFor(250);
    }
  }
  registry.start();
  dpss::net::AdminPlane plane;
  plane.nodeName = f.name;
  plane.role = "realtime";
  plane.registry = &node.metrics();
  plane.leaseState = [&node] {
    return std::string(node.registryLeaseActive() ? "active" : "expired");
  };
  plane.servedSegments = [&node] {
    std::vector<std::string> out;
    for (const auto& id : node.announcedSegments()) out.push_back(id.toString());
    return out;
  };
  plane.statusFields = [&node] { return subscriptionStatusFields(node); };
  plane.startNs = dpss::obs::nowNanos();
  auto admin = startAdmin(f, clock, std::move(plane));
  auto shipper = makeShipper(f, node.metrics(), transport);
  announceReady(f, transport);
  mainLoop(f, clock, [&] {
    node.tick();
    if (shipper) shipper->tick();
  });
  registry.stop();
  node.stop();
  if (admin) admin->stop();
  return 0;
}

int runBroker(const Flags& f, dpss::Clock& clock,
              dpss::net::NetTransport& transport) {
  dpss::net::RemoteRegistry registry(transport, dpss::net::kSubstrateNode,
                                     registryOptions(f));
  // The subscription plane persists standing queries in the authoritative
  // metastore (journaled when the substrate runs with --meta-dir, so they
  // survive coordinator failover) and fans them out to realtime nodes.
  dpss::net::RemoteMetaStore metaStore(transport, dpss::net::kSubstrateNode,
                                       rpcPolicy(f));
  dpss::cluster::BrokerOptions options;
  options.resultCacheCapacity = f.brokerCache;
  options.rpcPolicy = rpcPolicy(f);
  options.slowQueryMs = f.slowQueryMs;
  dpss::cluster::BrokerNode broker(f.name, registry, transport, options);
  dpss::cluster::SubscriptionBrokerOptions subOptions;
  subOptions.rpc = rpcPolicy(f);
  dpss::cluster::SubscriptionBroker subscriptions(registry, metaStore,
                                                  transport, subOptions);
  broker.attachSubscriptions(&subscriptions);
  // The broker dials whatever serves a segment; historicals that joined
  // after launch are routed through their announced endpoints.
  installResolver(transport, registry);
  dpss::net::bindControl(transport, f.name, "broker", {});
  const ServingScope serving(transport, f.name);
  broker.start();
  registry.start();
  dpss::net::AdminPlane plane;
  plane.nodeName = f.name;
  plane.role = "broker";
  plane.registry = &broker.metrics();
  plane.leaseState = [&broker] {
    return std::string(broker.registryLeaseActive() ? "active" : "expired");
  };
  plane.statusFields = [&subscriptions, &clock] {
    return subscriptionBrokerStatusFields(subscriptions, clock);
  };
  plane.startNs = dpss::obs::nowNanos();
  auto admin = startAdmin(f, clock, std::move(plane));
  auto shipper = makeShipper(f, broker.metrics(), transport);
  announceReady(f, transport);
  // The reconcile loop is throttled well below the tick rate: it probes
  // every realtime node, which is pointless more than ~twice a second.
  dpss::TimeMs lastReconcile = 0;
  mainLoop(f, clock, [&] {
    if (shipper) shipper->tick();
    const dpss::TimeMs now = clock.nowMs();
    if (now - lastReconcile >= 500) {
      lastReconcile = now;
      try {
        subscriptions.reconcile();
      } catch (const dpss::Error&) {
        // Substrate unreachable: the next round retries.
      }
    }
  });
  registry.stop();
  broker.stop();
  transport.setPeerResolver(nullptr);  // it captures `registry`
  if (admin) admin->stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags f = parseFlags(argc, argv);
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  // The process-global registry collects everything recorded outside a
  // ScopedRegistry (net loop threads, the coordinator's whole plane);
  // name it after this node so merged /metrics label those series too.
  // Safe here: no other thread exists yet.
  dpss::obs::globalRegistry().setNodeName(f.name);

  dpss::Clock& clock = dpss::SystemClock::instance();
  dpss::net::NetTransportOptions topts;
  topts.server.host = f.listenHost;
  topts.server.port = f.listenPort;
  dpss::net::NetTransport transport(clock, topts);
  try {
    transport.start();
    for (const auto& [name, hostPort] : f.peers) {
      transport.addPeer(name, hostPort);
    }
    int rc = 0;
    if (f.role == "substrate") {
      rc = runSubstrate(f, clock, transport);
    } else if (f.role == "coordinator") {
      rc = runCoordinator(f, clock, transport);
    } else if (f.role == "historical") {
      rc = runHistorical(f, clock, transport);
    } else if (f.role == "realtime") {
      rc = runRealtime(f, clock, transport);
    } else if (f.role == "broker") {
      rc = runBroker(f, clock, transport);
    } else {
      usage("unknown role " + f.role);
    }
    transport.stop();
    return rc;
  } catch (const dpss::Error& e) {
    std::cerr << "dpss_node '" << f.name << "': " << e.what() << std::endl;
    return 1;
  }
}
