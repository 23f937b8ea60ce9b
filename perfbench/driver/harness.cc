#include "harness.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/clock.h"
#include "common/error.h"
#include "net/control.h"
#include "net/socket.h"
#include "net/substrate.h"

namespace perfbench {

namespace {

volatile std::sig_atomic_t g_signal = 0;
void onSignal(int sig) { g_signal = sig; }

// Pids of every live node process, for the std::terminate path (which
// skips destructors): it SIGKILLs them so no node outlives the driver.
std::mutex g_pidsMu;
std::vector<pid_t> g_pids;

void trackPid(pid_t pid) {
  std::lock_guard<std::mutex> lock(g_pidsMu);
  g_pids.push_back(pid);
}

void untrackPid(pid_t pid) {
  std::lock_guard<std::mutex> lock(g_pidsMu);
  g_pids.erase(std::remove(g_pids.begin(), g_pids.end(), pid), g_pids.end());
}

[[noreturn]] void killChildrenAndAbort() {
  // No locking: the terminate handler may run while another thread holds
  // the mutex; a stale read at worst kills an already-reaped pid of ours.
  for (const pid_t pid : g_pids) ::kill(pid, SIGKILL);
  std::abort();
}

std::vector<std::string> splitFields(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

long long ticksFromStat(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) return -1;
  // Fields after the parenthesised command name start at field 3 (state);
  // utime and stime are fields 14 and 15.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return -1;
  const auto f = splitFields(line.substr(close + 1));
  if (f.size() < 13) return -1;
  return std::stoll(f[11]) + std::stoll(f[12]);
}

}  // namespace

bool interrupted() { return g_signal != 0; }

void installSignalHandlers() {
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::signal(SIGHUP, onSignal);
  std::signal(SIGPIPE, SIG_IGN);
  std::set_terminate(killChildrenAndAbort);
}

void throwIfInterrupted() {
  if (interrupted()) throw Interrupted();
}

void sleepMs(double ms) {
  const double until = nowMs() + ms;
  for (;;) {
    throwIfInterrupted();
    const double left = until - nowMs();
    if (left <= 0) return;
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<long long>(std::min(left, 20.0) * 1000)));
  }
}

// --- Cluster ---------------------------------------------------------------

Cluster::Cluster(const std::string& nodeBin, std::vector<NodeSpec> nodes,
                 bool traced)
    : nodes_(std::move(nodes)) {
  // A port probed free can be taken by another process before the node
  // binds it, and the node then exits at once: such a boot is retried on
  // fresh ports.
  for (int attempt = 1;; ++attempt) {
    try {
      boot(nodeBin, traced);
      return;
    } catch (const NodeExited&) {
      shutdown();
      if (attempt == 3) throw;
    } catch (...) {
      shutdown();
      throw;
    }
    procs_.clear();
    transport_.reset();
    down_ = false;
  }
}

void Cluster::boot(const std::string& nodeBin, bool traced) {
  // All probes stay bound until every port is picked, so no two coincide.
  std::vector<dpss::net::Fd> probes;
  const auto pick = [&] {
    probes.push_back(dpss::net::listenOn("127.0.0.1", 0));
    return dpss::net::boundPort(probes.back());
  };
  std::map<std::string, std::uint16_t> ports;
  std::string coordinator;
  for (const auto& n : nodes_) {
    ports[n.name] = pick();
    adminPorts_[n.name] = pick();
    if (n.role == "coordinator") coordinator = n.name;
  }
  probes.clear();
  if (coordinator.empty()) throw dpss::InvalidArgument("no coordinator");
  const auto hostPort = [&](const std::string& name) {
    return "127.0.0.1:" + std::to_string(ports.at(name));
  };
  std::vector<std::string> peerFlags;
  for (const auto& n : nodes_) {
    peerFlags.push_back("--peer");
    peerFlags.push_back(n.name + "=" + hostPort(n.name));
  }
  peerFlags.push_back("--peer");
  peerFlags.push_back(std::string(dpss::net::kSubstrateNode) + "=" +
                      hostPort(coordinator));

  for (const auto& n : nodes_) {
    std::vector<std::string> argv = {
        nodeBin,   "--role",        n.role,
        "--name",  n.name,          "--listen",
        hostPort(n.name), "--admin-port",
        std::to_string(adminPorts_.at(n.name))};
    if (!traced) {
      argv.push_back("--trace-sink");
      argv.push_back("");
    }
    argv.insert(argv.end(), n.flags.begin(), n.flags.end());
    argv.insert(argv.end(), peerFlags.begin(), peerFlags.end());
    auto proc = dpss::net::Subprocess::spawn(argv);
    trackPid(proc.pid());
    procs_.emplace(n.name, std::move(proc));
  }
  transport_ = std::make_unique<dpss::net::NetTransport>(
      dpss::SystemClock::instance());
  transport_->start();
  for (const auto& n : nodes_) {
    transport_->addPeer(n.name, hostPort(n.name));
    transport_->addPeer(dpss::net::controlNode(n.name), hostPort(n.name));
  }
  transport_->addPeer(dpss::net::kSubstrateNode, hostPort(coordinator));
  // Every role starts its admin plane only after its node is serving
  // (handlers bound, registry session up), so /healthz answering is the
  // readiness signal; the control channel is bound earlier than that.
  for (const auto& n : nodes_) {
    const bool up = waitFor(
        [&] {
          checkAlive();
          adminGet(n.name, "/healthz");
          dpss::net::controlPing(*transport_, n.name);
          return true;
        },
        20'000);
    if (!up) throw dpss::Unavailable("node never answered: " + n.name);
  }
}

Cluster::~Cluster() { shutdown(); }

void Cluster::shutdown() {
  if (down_) return;
  down_ = true;
  if (transport_) transport_->stop();
  for (auto& [name, proc] : procs_) proc.kill(SIGTERM);
  const double graceUntil = nowMs() + 1'500;
  for (auto& [name, proc] : procs_) {
    while (proc.running() && nowMs() < graceUntil) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (proc.running()) proc.kill(SIGKILL);
    proc.wait();
    untrackPid(proc.pid());
  }
}

const std::string& Cluster::roleOf(const std::string& node) const {
  for (const auto& n : nodes_) {
    if (n.name == node) return n.role;
  }
  throw dpss::InvalidArgument("unknown node " + node);
}

std::string Cluster::adminGet(const std::string& node,
                              const std::string& path) {
  dpss::Clock& clock = dpss::SystemClock::instance();
  const dpss::TimeMs deadlineAt = clock.nowMs() + 5'000;
  dpss::net::Fd fd = dpss::net::connectWithDeadline(
      {"127.0.0.1", adminPorts_.at(node)}, clock, deadlineAt);
  dpss::net::sendAll(fd, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n",
                     clock, deadlineAt);
  std::string response;
  for (;;) {
    const std::string chunk = dpss::net::recvSome(fd, clock, deadlineAt);
    if (chunk.empty()) break;
    response += chunk;
  }
  if (response.rfind("HTTP/1.1 200", 0) != 0) {
    throw dpss::Unavailable("admin GET " + path + " on " + node + " failed");
  }
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? "" : response.substr(at + 4);
}

long long Cluster::cpuTicks(const std::string& node) const {
  return ticksFromStat("/proc/" + std::to_string(procs_.at(node).pid()) +
                       "/stat");
}

void Cluster::checkAlive() {
  for (auto& [name, proc] : procs_) {
    if (!proc.running()) throw NodeExited(name);
  }
}

long long selfCpuTicks() { return ticksFromStat("/proc/self/stat"); }

void hostTicks(long long* steal, long long* total) {
  std::ifstream in("/proc/stat");
  std::string line;
  *steal = *total = 0;
  if (!std::getline(in, line)) return;
  // cpu user nice system idle iowait irq softirq steal guest guest_nice
  const auto f = splitFields(line);
  for (std::size_t i = 1; i < f.size() && i <= 8; ++i) {
    *total += std::stoll(f[i]);
  }
  if (f.size() > 8) *steal = std::stoll(f[8]);
}

long clockTicksPerSecond() { return ::sysconf(_SC_CLK_TCK); }

bool waitFor(const std::function<bool()>& probe, double budgetMs) {
  const double deadline = nowMs() + budgetMs;
  for (;;) {
    throwIfInterrupted();
    try {
      if (probe()) return true;
    } catch (const dpss::Error&) {
    }
    if (nowMs() >= deadline) return false;
    sleepMs(10);
  }
}

double runOpenLoop(double startMs, double endMs, double rate, double tickMs,
                   const std::function<void(std::uint64_t, std::uint64_t)>&
                       tick) {
  const double periodMs = 1000.0 / rate;
  const auto due = [&](std::uint64_t seq) {
    return startMs + static_cast<double>(seq) * periodMs;
  };
  double lateMax = 0;
  std::uint64_t next = 0;
  for (double t = startMs; t < endMs; t += tickMs) {
    sleepMs(t - nowMs());
    const double now = nowMs();
    std::uint64_t end = next;
    while (due(end) <= now && due(end) < endMs) ++end;
    if (end == next) continue;
    lateMax = std::max(lateMax, now - due(next));
    tick(next, end);
    next = end;
  }
  return lateMax;
}

double maxIngestLag(Cluster& cluster, const std::vector<std::string>& nodes,
                    double endMs, const std::function<double()>& offered) {
  const std::string key =
      "\"name\":\"realtime.events.ingested\",\"kind\":\"counter\"";
  double lagMax = 0;
  try {
    while (nowMs() < endMs) {
      sleepMs(1'000);
      const double sent = offered();
      double ingested = 0;
      for (const auto& node : nodes) {
        const std::string body = cluster.adminGet(node, "/metrics.json");
        for (std::size_t at = body.find(key); at != std::string::npos;
             at = body.find(key, at + 1)) {
          const std::size_t v = body.find("\"value\":", at);
          if (v != std::string::npos) ingested += std::stod(body.substr(v + 8));
        }
      }
      lagMax = std::max(lagMax, sent - ingested);
    }
  } catch (const std::exception&) {
    // A signal or an admin error ends sampling; the run reports the rest.
  }
  return lagMax;
}

// --- run record --------------------------------------------------------------

void Failures::add(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_[reason];
}

std::uint64_t Failures::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t sum = 0;
  for (const auto& [reason, n] : counts_) sum += n;
  return sum;
}

std::map<std::string, std::uint64_t> Failures::byReason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

std::string Json::str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Json::num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string Json::arr(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += num(v[i]);
  }
  return out + "]";
}

std::string Json::obj(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ",";
    out += str(fields[i].first) + ":" + fields[i].second;
  }
  return out + "}";
}

void PhaseProbe::begin(Cluster& cluster) {
  for (const auto& n : cluster.nodes()) {
    metricsStart[n.name] = cluster.adminGet(n.name, "/metrics.json");
  }
  for (const auto& n : cluster.nodes()) {
    cpuStart[n.name] = cluster.cpuTicks(n.name);
  }
  cpuStart["driver"] = selfCpuTicks();
  hostTicks(&stealStart, &totalStart);
  startMs = nowMs();
}

void PhaseProbe::end(Cluster& cluster) {
  endMs = nowMs();
  for (const auto& n : cluster.nodes()) {
    cpuEnd[n.name] = cluster.cpuTicks(n.name);
  }
  cpuEnd["driver"] = selfCpuTicks();
  hostTicks(&stealEnd, &totalEnd);
  for (const auto& n : cluster.nodes()) {
    metricsEnd[n.name] = cluster.adminGet(n.name, "/metrics.json");
  }
}

std::string PhaseProbe::toJson(Cluster& cluster) const {
  std::vector<std::pair<std::string, std::string>> cpu, roles, mStart, mEnd;
  for (const auto& [node, start] : cpuStart) {
    cpu.emplace_back(node, Json::num(static_cast<double>(cpuEnd.at(node) -
                                                          start)));
    const std::string role = node == "driver" ? "driver" : cluster.roleOf(node);
    roles.emplace_back(node, Json::str(role));
  }
  for (const auto& [node, body] : metricsStart) mStart.emplace_back(node, body);
  for (const auto& [node, body] : metricsEnd) mEnd.emplace_back(node, body);
  return Json::obj({{"seconds", Json::num((endMs - startMs) / 1000.0)},
                    {"clk_tck", Json::num(clockTicksPerSecond())},
                    {"host_steal_ticks",
                     Json::num(static_cast<double>(stealEnd - stealStart))},
                    {"host_total_ticks",
                     Json::num(static_cast<double>(totalEnd - totalStart))},
                    {"cpu_ticks", Json::obj(cpu)},
                    {"roles", Json::obj(roles)},
                    {"metrics_start", Json::obj(mStart)},
                    {"metrics_end", Json::obj(mEnd)}});
}

std::string RunRecord::toJson(const Options& opt) const {
  std::vector<std::pair<std::string, std::string>> fails, ser, sc;
  for (const auto& [reason, n] : failures.byReason()) {
    fails.emplace_back(reason, Json::num(static_cast<double>(n)));
  }
  for (const auto& [name, v] : series) ser.emplace_back(name, Json::arr(v));
  for (const auto& [name, v] : scalars) sc.emplace_back(name, Json::num(v));
  std::string traceArr = "[";
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (i > 0) traceArr += ",";
    traceArr += traces[i];
  }
  traceArr += "]";
  return Json::obj({{"workload", Json::str(opt.workload)},
                    {"seed", Json::num(static_cast<double>(opt.seed))},
                    {"traced", opt.traced ? "true" : "false"},
                    {"smoke", opt.smoke ? "true" : "false"},
                    {"setup_s", Json::arr(setupS)},
                    {"attempted", Json::num(static_cast<double>(attempted))},
                    {"failed",
                     Json::num(static_cast<double>(failures.total()))},
                    {"failures", Json::obj(fails)},
                    {"series", Json::obj(ser)},
                    {"scalars", Json::obj(sc)},
                    {"traces", traceArr},
                    {"phase", phaseJson}});
}

// --- trace fetching ----------------------------------------------------------

std::string hexTraceId(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

TraceFetcher::TraceFetcher(Cluster& cluster, std::string coordinator,
                           double delayMs)
    : cluster_(cluster),
      coordinator_(std::move(coordinator)),
      delayMs_(delayMs),
      thread_([this] { loop(); }) {}

TraceFetcher::~TraceFetcher() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  if (thread_.joinable()) thread_.join();
}

void TraceFetcher::submit(std::uint64_t traceId, std::string clientJson,
                          std::size_t expectedSpans) {
  std::lock_guard<std::mutex> lock(mu_);
  queue_.push_back(
      {nowMs() + delayMs_, traceId, std::move(clientJson), expectedSpans, 0});
}

std::vector<std::string> TraceFetcher::finish() {
  const double deadline = nowMs() + delayMs_ + 5'000;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty() || nowMs() > deadline) {
        stop_ = true;
        break;
      }
    }
    sleepMs(20);
  }
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

void TraceFetcher::loop() {
  for (;;) {
    Item item;
    bool have = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
      const double now = nowMs();
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->dueMs <= now) {
          item = std::move(*it);
          queue_.erase(it);
          have = true;
          break;
        }
      }
    }
    if (!have) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    std::string body;
    std::size_t spans = 0;
    try {
      body = cluster_.adminGet(
          coordinator_, "/tracez.json?trace=" + hexTraceId(item.traceId));
      const std::size_t at = body.find("\"span_count\":");
      if (at != std::string::npos) {
        spans = std::stoull(body.substr(at + 13));
      }
    } catch (const std::exception&) {
      body.clear();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (spans < item.expectedSpans && item.attempts < 10) {
      // Spans ship on the nodes' maintenance ticks; try again shortly.
      ++item.attempts;
      item.dueMs = nowMs() + 100;
      queue_.push_back(std::move(item));
      continue;
    }
    done_.push_back(Json::obj(
        {{"client", item.client}, {"trace", body.empty() ? "null" : body}}));
  }
}

}  // namespace perfbench
