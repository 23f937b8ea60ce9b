// Broker stream search procedure (§III-C, Step 2).
//
// For each segment i the broker:
//   2.1  computes E(c_i) = Π_{w_j ∈ W_i} Q[j]   (c_i = |K ∩ W_i|)
//   2.2  folds E(c_i·f_i) = E(c_i)^{f_i} into every data-buffer slot j
//        with g(i, j) = 1, blockwise
//   2.3  folds E(c_i) into the same c-buffer slots
//   2.4  folds E(c_i) into the k Bloom slots h_1(i)..h_k(i) of the
//        matching-indices buffer
//
// After t segments the broker ships the three buffers plus the seeds of
// g and the Bloom family ("the broker should return the function g").
// A searcher is armed once at construction; finish() ends the batch and
// only an explicit rearm() starts another.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/paillier.h"
#include "crypto/prf.h"
#include "pss/blocking.h"
#include "pss/buffers.h"
#include "pss/dictionary.h"
#include "pss/query.h"

namespace dpss::pss {

/// What the broker returns to the client after a batch.
struct SearchResultEnvelope {
  SearchBuffers buffers;
  std::uint64_t prfSeed = 0;    // seed of g
  std::uint64_t bloomSeed = 0;  // seed of h_1..h_k
  /// The contiguous stream-index range [firstIndex, firstIndex + t) this
  /// batch covered. In the distributed deployment each storage node
  /// searches its own partition of the stream and returns an envelope for
  /// its range; the client reconstructs each envelope independently.
  std::uint64_t firstIndex = 0;
  std::uint64_t segmentsProcessed = 0;  // t
  /// Documents per segment (1 = unpacked). With packFactor P > 1 every
  /// segment in this envelope is a pack of P consecutive documents
  /// (pss::packPayloads); the client unpacks after reconstruction.
  std::uint64_t packFactor = 1;
  /// Stream index of the first *document* covered (== firstIndex when
  /// unpacked). Document o of group i lives at
  /// firstDocIndex + (i - firstIndex)·packFactor + o.
  std::uint64_t firstDocIndex = 0;
  /// Total documents covered (== segmentsProcessed when unpacked; the
  /// last group of a packed batch may be short).
  std::uint64_t documentCount = 0;
  SearchParams params;

  void serialize(ByteWriter& w) const;
  static SearchResultEnvelope deserialize(ByteReader& r);
};

class StreamSearcher {
 public:
  /// `blocksPerSegment` fixes s for the whole batch (every payload must
  /// encode into at most s blocks). `rng` provides buffer-initialization
  /// randomness and the two PRF seeds.
  StreamSearcher(const Dictionary& dict, EncryptedQuery query,
                 std::size_t blocksPerSegment, Rng& rng);

  /// Processes segment `index` (its position in the stream). Indices must
  /// be contiguous and increasing within a batch; the first call fixes the
  /// batch's base index.
  void processSegment(std::uint64_t index, std::string_view payload);

  /// As above with pre-tokenized distinct words and pre-encoded blocks —
  /// the hot path for the distributed broker.
  void processSegment(std::uint64_t index,
                      const std::vector<std::string>& words,
                      const std::vector<crypto::Bigint>& blocks);

  /// Appends `count` empty segments to the batch without folding. An empty
  /// segment's contribution is the multiplicative identity everywhere
  /// (c = 0 with blinding r = 1, so E(c) = 1 and E(c·f) = 1), which leaves
  /// every buffer slot byte-identical — this only advances the index
  /// bookkeeping. Standing subscriptions use it to pad a partial batch up
  /// to l_F segments before sealing (the paper requires t > l_F); padded
  /// indices can never be recovered (their c-value is zero). Requires a
  /// non-empty batch so the base index is already fixed.
  void padSegments(std::size_t count);

  /// Ends the batch: hands the buffers + seeds to the caller. The searcher
  /// is then finished — processSegment, padSegments and finish are checked
  /// errors until rearm(). A one-shot search (the historical's slice, the
  /// in-process session) destroys the searcher here and pays for one
  /// arming only.
  SearchResultEnvelope finish();

  /// Arms fresh buffers and seeds for the next batch: every slot a fresh
  /// E(0), drawing `rng` in the constructor's order (buffers, then the PRF
  /// seed, then the Bloom seed). The only way to reuse a finished searcher;
  /// standing subscriptions call it after each seal.
  void rearm();

  std::uint64_t segmentsProcessed() const { return processed_; }
  const BlockCodec& codec() const { return codec_; }
  std::size_t blocksPerSegment() const { return blocks_; }

 private:
  /// Step 2.1: encrypted c-value of a segment from its distinct words.
  crypto::Ciphertext encryptedCValue(
      const std::vector<std::string>& words) const;

  const Dictionary& dict_;
  EncryptedQuery query_;
  std::size_t blocks_;
  BlockCodec codec_;
  Rng& rng_;
  SearchBuffers buffers_;
  crypto::BitPrf prf_;
  crypto::BloomHashFamily bloom_;
  std::uint64_t firstIndex_ = 0;
  std::uint64_t processed_ = 0;
  bool finished_ = false;
};

}  // namespace dpss::pss
