#include "pss/query.h"

#include "common/error.h"

namespace dpss::pss {

EncryptedQuery::EncryptedQuery(crypto::PaillierPublicKey pub,
                               std::vector<crypto::Ciphertext> entries,
                               SearchParams params)
    : pub_(std::move(pub)), entries_(std::move(entries)), params_(params) {
  params_.validate();
}

void EncryptedQuery::serialize(ByteWriter& w) const {
  pub_.serialize(w);
  params_.serialize(w);
  w.varint(entries_.size());
  for (const auto& e : entries_) w.str(e.toBlob().wire());
}

EncryptedQuery EncryptedQuery::deserialize(ByteReader& r) {
  auto pub = crypto::PaillierPublicKey::deserialize(r);
  auto params = SearchParams::deserialize(r);
  // Each entry costs at least its 1-byte length prefix.
  const std::uint64_t n = r.count(1);
  std::vector<crypto::Ciphertext> entries;
  entries.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    entries.push_back(
        crypto::Ciphertext::fromBlob(crypto::CiphertextBlob(r.str())));
  }
  return EncryptedQuery(std::move(pub), std::move(entries), params);
}

EncryptedQuery buildQuery(const Dictionary& dict,
                          const std::set<std::string>& keywords,
                          const crypto::PaillierPublicKey& pub,
                          const SearchParams& params, Rng& rng) {
  for (const auto& kw : keywords) {
    if (!dict.contains(kw)) {
      throw InvalidArgument("query keyword not in public dictionary: " + kw);
    }
  }
  std::vector<crypto::Ciphertext> entries;
  entries.reserve(dict.size());
  for (std::size_t i = 0; i < dict.size(); ++i) {
    const bool inK = keywords.count(dict.word(i)) > 0;
    entries.push_back(
        pub.encrypt(crypto::Bigint(inK ? 1 : 0), rng));
  }
  return EncryptedQuery(pub, std::move(entries), params);
}

}  // namespace dpss::pss
