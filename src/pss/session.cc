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

std::vector<RecoveredSegment> PrivateSearchClient::openDocuments(
    const SearchResultEnvelope& env,
    const std::set<std::string>& keywords) const {
  std::vector<RecoveredSegment> groups = open(env);
  if (env.packFactor <= 1) return groups;
  std::vector<RecoveredSegment> docs;
  for (const auto& group : groups) {
    // Escape hatch (lint-audited): splitting a reconstructed pack group
    // back into documents is client-side reconstruction by definition.
    std::vector<std::string> members =
        unpackPayloads(group.payload.releaseForClientReconstruction());
    const std::uint64_t base =
        env.firstDocIndex + (group.index - env.firstIndex) * env.packFactor;
    for (std::size_t o = 0; o < members.size(); ++o) {
      // The per-document c-value: |K ∩ W_doc| over the dictionary, same
      // count the broker would have folded had this document been its
      // own segment. Zero means the document only rode along in a
      // matched group.
      std::uint64_t c = 0;
      for (const auto& w : distinctWords(members[o])) {
        if (keywords.contains(w) && dict_.contains(w)) ++c;
      }
      if (c == 0) continue;
      RecoveredSegment doc;
      doc.index = base + o;
      doc.cValue = c;
      doc.payload = crypto::PlaintextBytes(std::move(members[o]));
      docs.push_back(std::move(doc));
    }
  }
  return docs;
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
    std::size_t blocksPerSegment, Rng& brokerRng, int maxRetries,
    std::size_t packFactor) {
  DPSS_CHECK_MSG(threshold >= 1, "threshold must be at least 1");
  auto results =
      runPrivateSearchPacked(client, keywords, payloads, packFactor,
                             blocksPerSegment, brokerRng, maxRetries);
  std::erase_if(results, [threshold](const RecoveredSegment& r) {
    return r.cValue < threshold;
  });
  return results;
}

std::vector<RecoveredSegment> runPrivateSearchPacked(
    PrivateSearchClient& client, const std::set<std::string>& keywords,
    const std::vector<std::string>& payloads, std::size_t packFactor,
    std::size_t blocksPerSegment, Rng& brokerRng, int maxRetries) {
  if (packFactor <= 1) {
    return runPrivateSearch(client, keywords, payloads, blocksPerSegment,
                            brokerRng, maxRetries);
  }
  // Group the stream: pack i covers documents [i·P, min((i+1)·P, N)).
  // Its keyword set is the union over members, so a pack folds whenever
  // any member matches.
  std::vector<std::string> packed;
  std::vector<std::vector<std::string>> packedWords;
  for (std::size_t i = 0; i < payloads.size(); i += packFactor) {
    const std::size_t count = std::min(packFactor, payloads.size() - i);
    std::vector<std::string_view> members;
    members.reserve(count);
    std::set<std::string> words;
    for (std::size_t o = 0; o < count; ++o) {
      members.push_back(payloads[i + o]);
      for (auto& w : distinctWords(payloads[i + o])) words.insert(std::move(w));
    }
    packed.push_back(packPayloads(members));
    packedWords.emplace_back(words.begin(), words.end());
  }
  if (blocksPerSegment == 0) {
    blocksPerSegment = blocksNeeded(packed, client.publicKey().modulusBits());
  }
  const EncryptedQuery query = client.makeQuery(keywords);
  for (int attempt = 0;; ++attempt) {
    StreamSearcher searcher(client.dictionary(), query, blocksPerSegment,
                            brokerRng);
    for (std::size_t g = 0; g < packed.size(); ++g) {
      searcher.processSegment(
          g, packedWords[g],
          searcher.codec().encode(packed[g], blocksPerSegment));
    }
    SearchResultEnvelope env = searcher.finish();
    env.packFactor = packFactor;
    env.firstDocIndex = 0;
    env.documentCount = payloads.size();
    try {
      return client.openDocuments(env, keywords);
    } catch (const CryptoError& e) {
      if (attempt >= maxRetries) throw;
      DPSS_LOG(Warn) << "singular reconstruction matrix, retrying batch ("
                     << e.what() << ")";
    }
  }
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
