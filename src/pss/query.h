// Client query construction (§III-C, Step 1).
//
// For a disjunction K ⊆ D the client sets q_i = 1 iff w_i ∈ K, encrypts
// each q_i under its Paillier key (on the CRT halves: the client holds
// the factorization), and ships the ciphertext array
// Q together with the public key and the search parameters.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/paillier.h"
#include "pss/dictionary.h"
#include "pss/params.h"

namespace dpss::pss {

/// What the client sends to the broker: the encrypted query vector Q, the
/// public key n, and the buffer parameters.
class EncryptedQuery {
 public:
  EncryptedQuery() = default;
  EncryptedQuery(crypto::PaillierPublicKey pub,
                 std::vector<crypto::Ciphertext> entries, SearchParams params);

  const crypto::PaillierPublicKey& publicKey() const { return pub_; }
  const SearchParams& params() const { return params_; }
  std::size_t dictionarySize() const { return entries_.size(); }

  /// Q[i] — the encryption of q_i.
  const crypto::Ciphertext& entry(std::size_t i) const {
    return entries_.at(i);
  }

  void serialize(ByteWriter& w) const;
  static EncryptedQuery deserialize(ByteReader& r);

 private:
  crypto::PaillierPublicKey pub_;
  std::vector<crypto::Ciphertext> entries_;
  SearchParams params_;
};

/// Builds Q for the keyword disjunction `keywords` (each must be in the
/// dictionary; throws InvalidArgument otherwise). Every entry — matching
/// or not — is a fresh probabilistic encryption, so the broker learns
/// nothing about K, not even |K|. The ciphertexts are byte-identical to
/// publicKey().encrypt from the same Rng state.
EncryptedQuery buildQuery(const Dictionary& dict,
                          const std::set<std::string>& keywords,
                          const crypto::PaillierPrivateKey& priv,
                          const SearchParams& params, Rng& rng);

}  // namespace dpss::pss
