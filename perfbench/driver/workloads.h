// The three benchmark workloads. Each boots its own cluster
// `opt.setups` times (timing every boot for setup_s), measures the last
// one for `opt.seconds`, checks every result, and fills the run record.
#pragma once

#include "harness.h"

namespace dpss::cluster {}
namespace dpss::net {}
namespace dpss::pss {}
namespace dpss::query {}
namespace dpss::storage {}

namespace perfbench {

namespace cluster = dpss::cluster;
namespace net = dpss::net;
namespace pss = dpss::pss;
namespace query = dpss::query;
namespace storage = dpss::storage;

/// One-shot private search over a document stream split across two
/// historicals; closed loop of client sessions (crypto-bound).
void runPssOneshot(const Options& opt, RunRecord& rec);

/// Standing subscriptions over open-loop live ingest into two realtime
/// nodes; a poller reconstructs matches (stream freshness).
void runSubsLive(const Options& opt, RunRecord& rec);

/// Table II analytics through the broker beside open-loop realtime ingest
/// (no crypto: engine scans, scatter RPCs, broker merge).
void runAnaMixed(const Options& opt, RunRecord& rec);

}  // namespace perfbench
