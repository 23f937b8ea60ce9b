// Shared plumbing of the end-to-end load generator: booting a real
// multi-process dpss_node cluster over loopback, reaping it on every exit
// path, reading each process's telemetry from the outside (admin-plane
// HTTP, /proc CPU), and emitting the raw run record that run.py reduces to
// metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/net_transport.h"
#include "net/subprocess.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;  // nodes ship spans; per-op traces are fetched
  bool smoke = false;   // toy sizes, every check on
  int setups = 1;       // cluster boots timed for setup_s; the last is used
  std::string nodeBin;
  std::string outPath;
};

/// Monotonic milliseconds (fractional).
inline double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Set by SIGINT/SIGTERM; every loop polls it and unwinds, so the cluster
/// destructor reaps the nodes.
bool interrupted();
void installSignalHandlers();
struct Interrupted : std::runtime_error {
  Interrupted() : std::runtime_error("interrupted by signal") {}
};
void throwIfInterrupted();
/// Sleeps in short slices so a signal is noticed promptly.
void sleepMs(double ms);

/// A node process exited while it should be serving. Not a dpss::Error,
/// so waitFor() never mistakes it for "not ready yet".
struct NodeExited : std::runtime_error {
  explicit NodeExited(const std::string& node)
      : std::runtime_error("node process exited: " + node) {}
};

struct NodeSpec {
  std::string role;
  std::string name;
  std::vector<std::string> flags;
};

/// A set of dpss_node processes wired to each other (and to this process)
/// over loopback TCP. Every node serves its admin plane; tracing is off
/// (--trace-sink '') unless `traced`. The destructor stops every process
/// (SIGTERM, then SIGKILL after a grace period) and reaps it.
class Cluster {
 public:
  Cluster(const std::string& nodeBin, std::vector<NodeSpec> nodes,
          bool traced);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Idempotent; also run by the destructor.
  void shutdown();

  dpss::net::NetTransport& transport() { return *transport_; }
  const std::vector<NodeSpec>& nodes() const { return nodes_; }
  const std::string& roleOf(const std::string& node) const;

  /// Body of one admin-plane GET against `node`.
  std::string adminGet(const std::string& node, const std::string& path);
  /// utime+stime of the node's process, in clock ticks.
  long long cpuTicks(const std::string& node) const;
  /// Throws NodeExited if any node process exited.
  void checkAlive();

 private:
  /// Picks ports, spawns every node and waits until each one serves.
  void boot(const std::string& nodeBin, bool traced);

  std::vector<NodeSpec> nodes_;
  std::map<std::string, std::uint16_t> adminPorts_;
  std::map<std::string, dpss::net::Subprocess> procs_;
  std::unique_ptr<dpss::net::NetTransport> transport_;
  bool down_ = false;
};

/// utime+stime of this process, in clock ticks.
long long selfCpuTicks();
/// Host-wide steal and total ticks from /proc/stat's "cpu" line.
void hostTicks(long long* steal, long long* total);
long clockTicksPerSecond();

/// Retries `probe` every 10 ms until it returns true or `budgetMs`
/// passes; false on timeout. Errors thrown by `probe` count as "not yet".
bool waitFor(const std::function<bool()>& probe, double budgetMs);

/// Boots a deployment `opt.setups` times, timing each boot into
/// rec.setupS; each boot is torn down before the next. Returns the last.
template <typename Deploy>
auto bootTimed(const Options& opt, std::vector<double>& setupS,
               const Deploy& deploy) {
  decltype(deploy()) d;
  for (int i = 0; i < opt.setups; ++i) {
    d = {};
    const double t0 = nowMs();
    d = deploy();
    setupS.push_back((nowMs() - t0) / 1000.0);
  }
  return d;
}

/// Open-loop schedule: operation `seq` is due at start + seq * 1000/rate
/// ms. Every `tickMs` until `endMs`, hands `tick(first, end)` the
/// half-open range of operations that came due. Returns the worst
/// lateness (ms an operation was handed over after its due time).
double runOpenLoop(double startMs, double endMs, double rate, double tickMs,
                   const std::function<void(std::uint64_t, std::uint64_t)>&
                       tick);

/// Samples once a second, until `endMs`, how far the realtime readers on
/// `nodes` trail the events handed to their queues (`offered()` minus
/// their realtime.events.ingested counters); returns the largest gap.
double maxIngestLag(Cluster& cluster, const std::vector<std::string>& nodes,
                    double endMs, const std::function<double()>& offered);

// --- run record ----------------------------------------------------------

/// Failure ledger: every failed operation lands here with a reason; the
/// run continues after any single failure.
class Failures {
 public:
  void add(const std::string& reason);
  std::uint64_t total() const;
  std::map<std::string, std::uint64_t> byReason() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> counts_;
};

/// Minimal JSON emitter for the run record.
class Json {
 public:
  static std::string str(const std::string& s);
  static std::string num(double v);
  static std::string arr(const std::vector<double>& v);
  static std::string obj(const std::vector<std::pair<std::string,
                                                     std::string>>& fields);
};

/// Outside-in telemetry of one phase: per-process CPU and /metrics.json
/// bodies, read once at each boundary.
struct PhaseProbe {
  std::map<std::string, long long> cpuStart, cpuEnd;
  // Host-wide /proc/stat ticks: time stolen by the hypervisor, and all.
  long long stealStart = 0, stealEnd = 0, totalStart = 0, totalEnd = 0;
  std::map<std::string, std::string> metricsStart, metricsEnd;
  double startMs = 0, endMs = 0;

  void begin(Cluster& cluster);
  void end(Cluster& cluster);
  std::string toJson(Cluster& cluster) const;
};

/// Common fields of every run record.
struct RunRecord {
  std::vector<double> setupS;
  std::uint64_t attempted = 0;
  Failures failures;
  std::map<std::string, std::vector<double>> series;  // named samples
  std::map<std::string, double> scalars;
  std::vector<std::string> traces;  // raw JSON objects
  std::string phaseJson = "{}";

  std::string toJson(const Options& opt) const;
};

/// Fetches the coordinator's assembled trace for each submitted trace id
/// on a background thread, after the span shippers had time to deliver
/// (traced runs only). Each result pairs the client-side record with the
/// /tracez.json body.
class TraceFetcher {
 public:
  TraceFetcher(Cluster& cluster, std::string coordinator, double delayMs);
  ~TraceFetcher();
  TraceFetcher(const TraceFetcher&) = delete;
  TraceFetcher& operator=(const TraceFetcher&) = delete;

  /// `clientJson` is the client-side record (a JSON object) of the
  /// operation whose server trace is `traceId`; the fetch is retried
  /// until the assembled trace holds `expectedSpans` spans.
  void submit(std::uint64_t traceId, std::string clientJson,
              std::size_t expectedSpans);
  /// Drains the queue (waiting out the delay) and returns the records.
  std::vector<std::string> finish();

 private:
  void loop();

  Cluster& cluster_;
  std::string coordinator_;
  double delayMs_;
  std::mutex mu_;
  struct Item {
    double dueMs = 0;
    std::uint64_t traceId = 0;
    std::string client;
    std::size_t expectedSpans = 0;
    int attempts = 0;
  };
  std::vector<Item> queue_;
  std::vector<std::string> done_;
  bool stop_ = false;
  std::thread thread_;
};

std::string hexTraceId(std::uint64_t id);

}  // namespace perfbench
