#include "cluster/pss_client.h"

#include <algorithm>

#include "common/error.h"
#include "common/logging.h"

namespace dpss::cluster {

std::vector<pss::RecoveredSegment> runDistributedPrivateSearch(
    PrivateSearchBroker& broker, pss::PrivateSearchClient& client,
    const std::string& docSource, const std::set<std::string>& keywords,
    DistributedSearchStats* stats, int maxRetries,
    const RpcPolicy& unavailableBackoff) {
  DistributedSearchStats local;
  const std::size_t maxBatches =
      std::max<std::size_t>(unavailableBackoff.maxAttempts, 1);
  for (int attempt = 0;;) {
    try {
      const auto query = client.makeQuery(keywords);
      const auto envelopes = broker.privateSearch(
          docSource, client.dictionary(), query, &local.traceId);
      local.envelopes = envelopes.size();
      local.documents = 0;
      for (const auto& env : envelopes) {
        local.documents += env.segmentsProcessed;
      }
      try {
        std::vector<pss::RecoveredSegment> all;
        for (const auto& env : envelopes) {
          const auto part = client.open(env);
          all.insert(all.end(), part.begin(), part.end());
        }
        std::sort(all.begin(), all.end(),
                  [](const pss::RecoveredSegment& a,
                     const pss::RecoveredSegment& b) {
                    return a.index < b.index;
                  });
        if (stats != nullptr) *stats = local;
        return all;
      } catch (const CryptoError& e) {
        ++local.retries;
        if (attempt >= maxRetries) throw;
        ++attempt;
        DPSS_LOG(Warn) << "distributed private search: singular slice, "
                       << "re-scattering batch (" << e.what() << ")";
      }
    } catch (const Unavailable& e) {
      // The whole batch failed before any envelope came back — node
      // churn or an injected fault. Retrying is safe: no state left
      // server-side, the next batch re-scatters from scratch.
      if (local.unavailableRetries + 1 >= maxBatches) throw;
      ++local.unavailableRetries;
      const TimeMs delay =
          backoffDelayMs(unavailableBackoff, local.unavailableRetries - 1);
      if (delay > 0) broker.clock().sleepFor(delay);
      DPSS_LOG(Warn) << "distributed private search: batch unavailable, "
                     << "retrying (" << e.what() << ")";
    }
  }
}

}  // namespace dpss::cluster
