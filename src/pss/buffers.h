// The three encrypted buffers of the search scheme (§III-C, Step 2):
// the data buffer F (l_F × s ciphertexts), the c-buffer C (l_F) and the
// matching-indices buffer I (l_I, an encrypted Bloom filter).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/paillier.h"
#include "crypto/prf.h"
#include "pss/params.h"

namespace dpss::pss {

class SearchBuffers {
 public:
  SearchBuffers() = default;

  /// All slots initialized to fresh encryptions of zero.
  SearchBuffers(const crypto::PaillierPublicKey& pub, const SearchParams& p,
                std::size_t blocksPerSegment, Rng& rng);

  std::size_t bufferLength() const { return cBuffer_.size(); }
  std::size_t indexBufferLength() const { return matchBuffer_.size(); }
  std::size_t blocksPerSegment() const { return blocks_; }

  /// F[slot][block].
  crypto::Ciphertext& data(std::size_t slot, std::size_t block) {
    return dataBuffer_.at(slot * blocks_ + block);
  }
  const crypto::Ciphertext& data(std::size_t slot, std::size_t block) const {
    return dataBuffer_.at(slot * blocks_ + block);
  }

  crypto::Ciphertext& c(std::size_t slot) { return cBuffer_.at(slot); }
  const crypto::Ciphertext& c(std::size_t slot) const {
    return cBuffer_.at(slot);
  }

  crypto::Ciphertext& match(std::size_t slot) { return matchBuffer_.at(slot); }
  const crypto::Ciphertext& match(std::size_t slot) const {
    return matchBuffer_.at(slot);
  }

  /// Folds one segment into every slot j set in g's column for `index`
  /// (BitPrf::column, never empty): each data block gets E(c)^{f_b}
  /// (precomputed in `ecf`), the c-slot gets E(c). Returns the number of
  /// homomorphic accumulations performed.
  std::uint64_t foldSlots(const crypto::PaillierPublicKey& pub,
                          const crypto::BitPrf& prf, std::uint64_t index,
                          const crypto::Ciphertext& ec,
                          const std::vector<crypto::Ciphertext>& ecf);

  void serialize(ByteWriter& w) const;
  static SearchBuffers deserialize(ByteReader& r);

 private:
  std::size_t blocks_ = 0;
  std::vector<crypto::Ciphertext> dataBuffer_;   // l_F * s
  std::vector<crypto::Ciphertext> cBuffer_;      // l_F
  std::vector<crypto::Ciphertext> matchBuffer_;  // l_I
};

}  // namespace dpss::pss
