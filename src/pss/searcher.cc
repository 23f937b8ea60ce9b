#include "pss/searcher.h"

#include "common/error.h"
#include "obs/metrics.h"

namespace dpss::pss {

namespace {

const obs::MetricId kSegmentsProcessed =
    obs::internCounter("pss.search.segments");
const obs::MetricId kSegmentNs = obs::internHistogram("pss.search.segment_ns");
const obs::MetricId kFoldCount = obs::internCounter("paillier.fold.count");
const obs::MetricId kFoldNs = obs::internHistogram("paillier.fold.ns");

}  // namespace

void SearchResultEnvelope::serialize(ByteWriter& w) const {
  buffers.serialize(w);
  w.u64(prfSeed);
  w.u64(bloomSeed);
  w.u64(firstIndex);
  w.u64(segmentsProcessed);
  params.serialize(w);
}

SearchResultEnvelope SearchResultEnvelope::deserialize(ByteReader& r) {
  SearchResultEnvelope e;
  e.buffers = SearchBuffers::deserialize(r);
  e.prfSeed = r.u64();
  e.bloomSeed = r.u64();
  e.firstIndex = r.u64();
  e.segmentsProcessed = r.u64();
  e.params = SearchParams::deserialize(r);
  return e;
}

StreamSearcher::StreamSearcher(const Dictionary& dict, EncryptedQuery query,
                               std::size_t blocksPerSegment, Rng& rng)
    : dict_(dict),
      query_(std::move(query)),
      blocks_(blocksPerSegment),
      codec_(BlockCodec::maxBlockBytesFor(query_.publicKey().modulusBits())),
      rng_(rng),
      buffers_(query_.publicKey(), query_.params(), blocksPerSegment, rng),
      prf_(rng.next()),
      bloom_(rng.next(), query_.params().bloomHashes,
             query_.params().indexBufferLength) {
  DPSS_CHECK_MSG(query_.dictionarySize() == dict.size(),
                 "encrypted query length must match the public dictionary");
}

crypto::Ciphertext StreamSearcher::encryptedCValue(
    const std::vector<std::string>& words) const {
  const auto& pub = query_.publicKey();
  // Π Q[j] over dictionary words found in the segment. The accumulator
  // starts at the multiplicative identity 1, i.e. E(0) with blinding
  // r = 1 — no fresh randomness is needed because the product is only
  // ever folded into buffer slots that carry their own randomness.
  crypto::Ciphertext acc{crypto::Bigint(1)};
  for (const auto& w : words) {
    if (const auto idx = dict_.indexOf(w)) {
      acc = pub.addCipher(acc, query_.entry(*idx));
    }
  }
  return acc;
}

void StreamSearcher::processSegment(std::uint64_t index,
                                    std::string_view payload) {
  processSegment(index, distinctWords(payload),
                 codec_.encode(payload, blocks_));
}

void StreamSearcher::processSegment(
    std::uint64_t index, const std::vector<std::string>& words,
    const std::vector<crypto::Bigint>& blocks) {
  DPSS_CHECK_MSG(!finished_, "processSegment on a finished searcher");
  DPSS_CHECK_MSG(blocks.size() == blocks_,
                 "segment must be encoded into exactly s blocks");
  if (processed_ == 0) {
    firstIndex_ = index;
  } else {
    DPSS_CHECK_MSG(index == firstIndex_ + processed_,
                   "stream indices must be contiguous within a batch");
  }
  const auto& pub = query_.publicKey();
  obs::MetricsRegistry& reg = obs::currentRegistry();
  obs::ScopedTimer segmentTimer(reg.histogram(kSegmentNs));

  // Step 2.1: E(c_i).
  const crypto::Ciphertext ec = encryptedCValue(words);

  // Step 2.2 (blockwise) + 2.3: fold into slots with g(i, j) = 1.
  // E(c_i·f_block) = E(c_i)^{f_block}, one modexp per block.
  const std::uint64_t foldStart = obs::nowNanos();
  std::vector<crypto::Ciphertext> ecf;
  ecf.reserve(blocks.size());
  for (const auto& block : blocks) ecf.push_back(pub.mulPlain(ec, block));
  std::uint64_t folds = buffers_.foldSlots(pub, prf_, index, ec, ecf);

  // Step 2.4: Bloom update of the matching-indices buffer.
  for (const auto slot : bloom_.slots(index)) {
    buffers_.match(slot) = pub.addCipher(buffers_.match(slot), ec);
    ++folds;
  }

  // The fold is the paper's Fig. 7 cost driver: every homomorphic
  // accumulation into a buffer slot for this segment counts as one fold.
  reg.counter(kFoldCount).inc(folds);
  reg.histogram(kFoldNs).observe(obs::nowNanos() - foldStart);
  reg.counter(kSegmentsProcessed).inc();

  ++processed_;
}

void StreamSearcher::padSegments(std::size_t count) {
  DPSS_CHECK_MSG(!finished_, "padSegments on a finished searcher");
  DPSS_CHECK_MSG(processed_ > 0,
                 "padSegments requires a non-empty batch (base index unset)");
  // Folding an empty segment multiplies every touched slot by the
  // ciphertext 1, leaving the buffers byte-identical — so padding is pure
  // bookkeeping: the padded indices enter [firstIndex, firstIndex + t) for
  // the client's Bloom scan, but their c-value is provably zero and the
  // reconstructor discards them as non-matches.
  processed_ += count;
}

SearchResultEnvelope StreamSearcher::finish() {
  DPSS_CHECK_MSG(!finished_, "finish on a finished searcher");
  finished_ = true;
  SearchResultEnvelope env;
  env.prfSeed = prf_.seed();
  env.bloomSeed = bloom_.seed();
  env.firstIndex = firstIndex_;
  env.segmentsProcessed = processed_;
  env.params = query_.params();
  env.buffers = std::move(buffers_);
  return env;
}

void StreamSearcher::rearm() {
  buffers_ = SearchBuffers(query_.publicKey(), query_.params(), blocks_, rng_);
  prf_ = crypto::BitPrf(rng_.next());
  bloom_ = crypto::BloomHashFamily(rng_.next(), query_.params().bloomHashes,
                                   query_.params().indexBufferLength);
  processed_ = 0;
  firstIndex_ = 0;
  finished_ = false;
}

}  // namespace dpss::pss
