#include "pss/session.h"

#include <algorithm>

#include "common/error.h"
#include "common/logging.h"

namespace dpss::pss {

PrivateSearchClient::PrivateSearchClient(const Dictionary& dict,
                                         SearchParams params,
                                         std::size_t modulusBits,
                                         std::uint64_t seed)
    : dict_(dict), params_(params), rng_(seed),
      keys_(crypto::generateKeyPair(modulusBits, rng_)) {
  params_.validate();
}

EncryptedQuery PrivateSearchClient::makeQuery(
    const std::set<std::string>& keywords) {
  return buildQuery(dict_, keywords, keys_.get().priv, params_, rng_);
}

std::size_t blocksNeeded(const std::vector<std::string>& payloads,
                         std::size_t modulusBits) {
  const BlockCodec codec(BlockCodec::maxBlockBytesFor(modulusBits));
  std::size_t blocks = 1;
  for (const auto& p : payloads) {
    blocks = std::max(blocks, codec.blockCount(p.size()));
  }
  return blocks;
}

std::vector<RecoveredSegment> runThresholdSearch(
    PrivateSearchClient& client, const std::set<std::string>& keywords,
    std::uint64_t threshold, const std::vector<std::string>& payloads,
    std::size_t blocksPerSegment, Rng& brokerRng, int maxRetries) {
  DPSS_CHECK_MSG(threshold >= 1, "threshold must be at least 1");
  auto results = runPrivateSearch(client, keywords, payloads,
                                  blocksPerSegment, brokerRng, maxRetries);
  std::erase_if(results, [threshold](const RecoveredSegment& r) {
    return r.cValue < threshold;
  });
  return results;
}

std::vector<RecoveredSegment> runPrivateSearch(
    PrivateSearchClient& client, const std::set<std::string>& keywords,
    const std::vector<std::string>& payloads, std::size_t blocksPerSegment,
    Rng& brokerRng, int maxRetries) {
  if (blocksPerSegment == 0) {
    blocksPerSegment =
        blocksNeeded(payloads, client.publicKey().modulusBits());
  }
  const EncryptedQuery query = client.makeQuery(keywords);
  for (int attempt = 0;; ++attempt) {
    StreamSearcher searcher(client.dictionary(), query, blocksPerSegment,
                            brokerRng);
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      searcher.processSegment(i, payloads[i]);
    }
    const SearchResultEnvelope env = searcher.finish();
    try {
      return client.open(env);
    } catch (const CryptoError& e) {
      if (attempt >= maxRetries) throw;
      DPSS_LOG(Warn) << "singular reconstruction matrix, retrying batch ("
                     << e.what() << ")";
    }
  }
}

}  // namespace dpss::pss
