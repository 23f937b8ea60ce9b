// High-level client-side API tying the pieces together.
//
// PrivateSearchClient owns the key pair and parameters; runPrivateSearch
// drives one full round (query → broker stream search → reconstruction)
// over an in-memory stream, retrying with a fresh PRF seed in the
// cryptographically-unlikely event of a singular reconstruction matrix.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/paillier.h"
#include "pss/dictionary.h"
#include "pss/params.h"
#include "pss/query.h"
#include "pss/reconstruct.h"
#include "pss/searcher.h"

namespace dpss::pss {

class PrivateSearchClient {
 public:
  /// Generates a fresh Paillier key pair of `modulusBits` bits.
  PrivateSearchClient(const Dictionary& dict, SearchParams params,
                      std::size_t modulusBits, std::uint64_t seed);

  /// Step 1: the encrypted query for a keyword disjunction.
  EncryptedQuery makeQuery(const std::set<std::string>& keywords);

  /// Steps 3–4: open a broker result envelope.
  std::vector<RecoveredSegment> open(const SearchResultEnvelope& env) const {
    return Reconstructor(keys_.get().priv).reconstruct(env);
  }

  /// Forwards to open(). Kept only for the perfbench load generator,
  /// which calls it by this name; everything else calls open().
  std::vector<RecoveredSegment> openDocuments(
      const SearchResultEnvelope& env,
      const std::set<std::string>& /*keywords*/) const {
    return open(env);
  }

  const crypto::PaillierPublicKey& publicKey() const { return keys_.get().pub; }
  const crypto::PaillierPrivateKey& privateKey() const {
    return keys_.get().priv;
  }
  const Dictionary& dictionary() const { return dict_; }
  const SearchParams& params() const { return params_; }

 private:
  const Dictionary& dict_;
  SearchParams params_;
  Rng rng_;
  // TrustedOnly: a server-role translation unit (broker/historical/
  // realtime/coordinator, DPSS_SERVER_ROLE_TU) cannot construct this
  // client — the key pair is compile-time confined to the trusted zone.
  crypto::TrustedOnly<crypto::PaillierKeyPair> keys_;
};

/// One full private-search round over an in-memory stream of payloads
/// (payload i has stream index i). `blocksPerSegment` must fit the
/// largest payload; pass 0 to auto-size it from the stream. Retries the
/// whole batch up to `maxRetries` times on a singular reconstruction
/// matrix.
std::vector<RecoveredSegment> runPrivateSearch(
    PrivateSearchClient& client, const std::set<std::string>& keywords,
    const std::vector<std::string>& payloads,
    std::size_t blocksPerSegment, Rng& brokerRng, int maxRetries = 3);

/// Smallest s such that every payload encodes into s blocks under a
/// modulus of `modulusBits` bits.
std::size_t blocksNeeded(const std::vector<std::string>& payloads,
                         std::size_t modulusBits);

/// (t, n)-threshold searching (the extension of Yi & Xing the paper's
/// related work describes): return only documents matching at least
/// `threshold` distinct query keywords. The disjunctive scheme already
/// recovers c_i = |K ∩ W_i| per match, so thresholding is a client-side
/// filter — no change to the broker protocol and no dictionary growth.
std::vector<RecoveredSegment> runThresholdSearch(
    PrivateSearchClient& client, const std::set<std::string>& keywords,
    std::uint64_t threshold, const std::vector<std::string>& payloads,
    std::size_t blocksPerSegment, Rng& brokerRng, int maxRetries = 3);

}  // namespace dpss::pss
