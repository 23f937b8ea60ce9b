#include "pss/subscription.h"

#include "common/error.h"
#include "obs/metrics.h"

namespace dpss::pss {

namespace {

const obs::MetricId kSubDocuments =
    obs::internCounter("pss.subscription.documents");
const obs::MetricId kSubOversized =
    obs::internCounter("pss.subscription.oversized");
const obs::MetricId kSubSnapshots =
    obs::internCounter("pss.subscription.snapshots");
const obs::MetricId kSubPadded = obs::internCounter("pss.subscription.padded");

}  // namespace

void SubscriptionSpec::serialize(ByteWriter& w) const {
  w.str(docSource);
  w.varint(dictionaryWords.size());
  for (const auto& word : dictionaryWords) w.str(word);
  query.serialize(w);
  w.varint(blocksPerSegment);
  policy.serialize(w);
}

SubscriptionSpec SubscriptionSpec::deserialize(ByteReader& r) {
  SubscriptionSpec s;
  s.docSource = r.str();
  const std::size_t words = r.count(1);  // >= 1-byte length prefix each
  s.dictionaryWords.reserve(words);
  for (std::size_t i = 0; i < words; ++i) s.dictionaryWords.push_back(r.str());
  s.query = EncryptedQuery::deserialize(r);
  s.blocksPerSegment = r.varint();
  s.policy = SnapshotPolicy::deserialize(r);
  DPSS_CHECK_MSG(s.query.dictionarySize() == s.dictionaryWords.size(),
                 "subscription query length must match its dictionary");
  DPSS_CHECK_MSG(s.blocksPerSegment >= 1,
                 "subscription needs at least one block per segment");
  return s;
}

void SubscriptionSnapshot::serialize(ByteWriter& w) const {
  w.varint(id);
  w.str(node);
  w.u64(seq);
  w.varint(paddedSegments);
  envelope.serialize(w);
}

SubscriptionSnapshot SubscriptionSnapshot::deserialize(ByteReader& r) {
  SubscriptionSnapshot s;
  s.id = r.varint();
  s.node = r.str();
  s.seq = r.u64();
  s.paddedSegments = r.varint();
  s.envelope = SearchResultEnvelope::deserialize(r);
  return s;
}

SubscriptionMatcher::SubscriptionMatcher(SubscriptionSpec spec,
                                         std::uint64_t seed,
                                         std::int64_t nowMs)
    : spec_(std::move(spec)),
      dict_(spec_.dictionaryWords),
      rng_(seed),
      searcher_(dict_, spec_.query, spec_.blocksPerSegment, rng_),
      batchStartMs_(nowMs) {}

bool SubscriptionMatcher::feed(std::uint64_t offset, std::string_view matchText,
                               std::string_view payload, std::int64_t nowMs) {
  if (batchDocuments_ == 0) batchStartMs_ = nowMs;
  ++batchDocuments_;
  ++documentsSeen_;
  obs::currentRegistry().counter(kSubDocuments).inc();
  const BlockCodec& codec = searcher_.codec();
  if (codec.blockCount(payload.size()) > spec_.blocksPerSegment) {
    // Too large for this subscription's block budget: keep the stream
    // position contiguous by folding an empty segment — identical buffers
    // to not folding at all, and the document can never be recovered.
    ++documentsOversized_;
    obs::currentRegistry().counter(kSubOversized).inc();
    if (searcher_.segmentsProcessed() == 0) {
      searcher_.processSegment(offset, {},
                               codec.encode("", spec_.blocksPerSegment));
    } else {
      searcher_.padSegments(1);
    }
    return false;
  }
  searcher_.processSegment(offset, distinctWords(matchText),
                           codec.encode(payload, spec_.blocksPerSegment));
  return true;
}

bool SubscriptionMatcher::due(std::int64_t nowMs) const {
  if (batchDocuments_ == 0) return false;
  const SnapshotPolicy& p = spec_.policy;
  if (p.maxDocuments > 0 && batchDocuments_ >= p.maxDocuments) return true;
  return p.periodMs > 0 && nowMs - batchStartMs_ >= p.periodMs;
}

std::optional<SubscriptionSnapshot> SubscriptionMatcher::seal(
    std::int64_t nowMs) {
  if (batchDocuments_ == 0) return std::nullopt;
  const std::size_t lf = spec_.query.params().bufferLength;
  const std::uint64_t processed = searcher_.segmentsProcessed();
  const std::uint64_t pad = processed < lf ? lf - processed : 0;
  if (pad > 0) searcher_.padSegments(pad);
  SubscriptionSnapshot snap;  // id / node / seq are stamped by the owner
  snap.paddedSegments = pad;
  snap.envelope = searcher_.finish();
  searcher_.rearm();
  batchDocuments_ = 0;
  batchStartMs_ = nowMs;
  ++snapshotsSealed_;
  obs::currentRegistry().counter(kSubSnapshots).inc();
  if (pad > 0) obs::currentRegistry().counter(kSubPadded).inc(pad);
  return snap;
}

std::optional<SubscriptionSnapshot> SubscriptionMatcher::sealIfDue(
    std::int64_t nowMs) {
  if (!due(nowMs)) return std::nullopt;
  return seal(nowMs);
}

std::uint64_t SubscriptionMatcher::fillPercent() const {
  const std::size_t cap = spec_.policy.maxDocuments;
  if (cap == 0) return 0;
  const std::uint64_t pct = batchDocuments_ * 100 / cap;
  return pct > 100 ? 100 : pct;
}

}  // namespace dpss::pss
