#include "pss/buffers.h"

#include "common/error.h"

namespace dpss::pss {

SearchBuffers::SearchBuffers(const crypto::PaillierPublicKey& pub,
                             const SearchParams& p,
                             std::size_t blocksPerSegment, Rng& rng)
    : blocks_(blocksPerSegment) {
  p.validate();
  DPSS_CHECK_MSG(blocksPerSegment >= 1, "need at least one block");
  dataBuffer_.reserve(p.bufferLength * blocks_);
  for (std::size_t i = 0; i < p.bufferLength * blocks_; ++i) {
    dataBuffer_.push_back(pub.encryptZero(rng));
  }
  cBuffer_.reserve(p.bufferLength);
  for (std::size_t i = 0; i < p.bufferLength; ++i) {
    cBuffer_.push_back(pub.encryptZero(rng));
  }
  matchBuffer_.reserve(p.indexBufferLength);
  for (std::size_t i = 0; i < p.indexBufferLength; ++i) {
    matchBuffer_.push_back(pub.encryptZero(rng));
  }
}

std::uint64_t SearchBuffers::foldSlots(
    const crypto::PaillierPublicKey& pub, const crypto::BitPrf& prf,
    std::uint64_t index, const crypto::Ciphertext& ec,
    const std::vector<crypto::Ciphertext>& ecf) {
  DPSS_CHECK_MSG(ecf.size() == blocks_, "need one E(c·f) per block");
  std::uint64_t folds = 0;
  for (std::size_t j = 0; j < cBuffer_.size(); ++j) {
    if (!prf(index, j)) continue;
    for (std::size_t b = 0; b < blocks_; ++b) {
      crypto::Ciphertext& slot = dataBuffer_[j * blocks_ + b];
      slot = pub.addCipher(slot, ecf[b]);
    }
    cBuffer_[j] = pub.addCipher(cBuffer_[j], ec);
    folds += blocks_ + 1;
  }
  return folds;
}

void SearchBuffers::serialize(ByteWriter& w) const {
  w.varint(blocks_);
  w.varint(cBuffer_.size());
  w.varint(matchBuffer_.size());
  for (const auto& ct : dataBuffer_) w.str(ct.toBlob().wire());
  for (const auto& ct : cBuffer_) w.str(ct.toBlob().wire());
  for (const auto& ct : matchBuffer_) w.str(ct.toBlob().wire());
}

SearchBuffers SearchBuffers::deserialize(ByteReader& r) {
  SearchBuffers b;
  // Every ciphertext costs at least its 1-byte length prefix, and each of
  // the l_F slots carries s data ciphertexts plus one c ciphertext, so the
  // l_F·s + l_F + l_I slots must fit the remaining bytes. s < remaining()
  // keeps s + 1 and l_F·(s + 1) from overflowing.
  b.blocks_ = r.varint();
  if (b.blocks_ >= r.remaining()) {
    throw CorruptData("blocks per segment exceed the remaining bytes");
  }
  const std::uint64_t lf = r.count(b.blocks_ + 1);
  const std::uint64_t li = r.count(1);
  const std::uint64_t slots = lf * (b.blocks_ + 1);
  if (slots > r.remaining() || li > r.remaining() - slots) {
    throw CorruptData("buffer slot counts exceed the remaining bytes");
  }
  auto readN = [&r](std::size_t n, std::vector<crypto::Ciphertext>& out) {
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(
          crypto::Ciphertext::fromBlob(crypto::CiphertextBlob(r.str())));
    }
  };
  readN(lf * b.blocks_, b.dataBuffer_);
  readN(lf, b.cBuffer_);
  readN(li, b.matchBuffer_);
  return b;
}

}  // namespace dpss::pss
