// e2e_driver: boots a real dpss_node cluster for one workload, drives it
// from this process, checks every result, and writes the raw run record
// (samples, failures, /proc CPU and /metrics.json at the phase
// boundaries, fetched traces) as one JSON object. run.py reduces it to
// the benchmark's metrics.
//
//   e2e_driver --workload pss_oneshot|subs_live|ana_mixed --seed N
//              --seconds S --node-bin PATH --out FILE
//              [--traced] [--smoke] [--setups K]
//
// Exit codes: 0 run completed (failed operations are in the record),
// 2 usage, 3 the run could not complete (boot/settle failure, a node
// died, or a signal, including the launcher's death). Every spawned node
// is reaped on every path.
#include <sys/prctl.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "common/logging.h"
#include "harness.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "e2e_driver: " << error << "\n"
            << "usage: e2e_driver --workload NAME --seed N --seconds S "
               "--node-bin PATH --out FILE [--traced] [--smoke] "
               "[--setups K]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  const auto next = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--workload") {
        o.workload = next(i);
      } else if (arg == "--seed") {
        o.seed = std::stoull(next(i));
      } else if (arg == "--seconds") {
        o.seconds = std::stod(next(i));
      } else if (arg == "--node-bin") {
        o.nodeBin = next(i);
      } else if (arg == "--out") {
        o.outPath = next(i);
      } else if (arg == "--setups") {
        o.setups = std::stoi(next(i));
      } else if (arg == "--traced") {
        o.traced = true;
      } else if (arg == "--smoke") {
        o.smoke = true;
      } else {
        usage("unknown flag " + arg);
      }
    }
  } catch (const std::logic_error&) {
    usage("bad numeric value");
  }
  if (o.workload.empty() || o.nodeBin.empty() || o.outPath.empty()) {
    usage("--workload, --node-bin and --out are required");
  }
  if (o.seconds <= 0 || o.setups < 1) usage("--seconds and --setups > 0");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  perfbench::installSignalHandlers();
  // If the launcher dies, unwind as on SIGTERM so the nodes are reaped.
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);
  dpss::setLogLevel(dpss::LogLevel::kError);
  perfbench::RunRecord rec;
  try {
    if (opt.workload == "pss_oneshot") {
      perfbench::runPssOneshot(opt, rec);
    } else if (opt.workload == "subs_live") {
      perfbench::runSubsLive(opt, rec);
    } else if (opt.workload == "ana_mixed") {
      perfbench::runAnaMixed(opt, rec);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "e2e_driver: " << opt.workload << ": " << e.what()
              << std::endl;
    return 3;
  }
  std::ofstream out(opt.outPath);
  out << rec.toJson(opt) << "\n";
  out.close();
  if (!out) {
    std::cerr << "e2e_driver: cannot write " << opt.outPath << std::endl;
    return 3;
  }
  return 0;
}
