// Standing private subscriptions — continuous stream search (the paper's
// headline scenario: "private search on streaming data ... communication
// independent of the size of the stream").
//
// A subscription is a standing encrypted query registered once and matched
// against every document a realtime node ingests from that point on. The
// server side (SubscriptionMatcher) folds each document into the three
// encrypted buffers exactly like the one-shot searcher; on a period or a
// fill-threshold it seals the buffers into an envelope ("snapshot"), and
// a separate re-arm draws fresh randomness for the next batch. The
// client side (SubscriptionFeed) decrypts each snapshot independently
// and accumulates recovered documents, deduplicating replays by stream
// position — the incremental reconstruction contract that makes
// crash/replay delivery exactly-once from the client's point of view.
//
// Because the reconstructor requires t >= l_F segments per envelope, a
// partial batch is padded with empty segments before sealing
// (StreamSearcher::padSegments): an empty segment contributes the
// multiplicative identity to every slot, so padding is invisible in the
// buffers and a padded index can never be recovered.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/paillier.h"
#include "crypto/sensitive.h"
#include "pss/dictionary.h"
#include "pss/query.h"
#include "pss/reconstruct.h"
#include "pss/searcher.h"

namespace dpss::pss {

using SubscriptionId = std::uint64_t;

/// When a matcher seals its in-progress batch into a snapshot. Both
/// triggers are public quantities (wall time, documents processed) — the
/// encrypted match count cannot drive sealing without leaking it.
struct SnapshotPolicy {
  /// Seal a non-empty batch at least this often. <= 0 disables the timer.
  std::int64_t periodMs = 5000;
  /// Seal once this many documents entered the batch. 0 disables.
  std::size_t maxDocuments = 64;

  void serialize(ByteWriter& w) const {
    w.svarint(periodMs);
    w.varint(maxDocuments);
  }
  static SnapshotPolicy deserialize(ByteReader& r) {
    SnapshotPolicy p;
    p.periodMs = r.svarint();
    p.maxDocuments = r.varint();
    return p;
  }
};

/// Everything a realtime node needs to stand up a matcher: the public
/// dictionary, the encrypted query (public key + params ride inside it),
/// the block budget per document, and the snapshot cadence. The client
/// never ships key material — only ciphertexts and public tuning.
struct SubscriptionSpec {
  /// Which ingest stream to match (the realtime node's dataSource).
  std::string docSource;
  std::vector<std::string> dictionaryWords;
  EncryptedQuery query;
  std::size_t blocksPerSegment = 1;
  SnapshotPolicy policy;

  void serialize(ByteWriter& w) const;
  static SubscriptionSpec deserialize(ByteReader& r);
};

/// One sealed batch of encrypted buffers, tagged with its origin node and
/// a per-(node, subscription) monotonic sequence number for ack-based
/// at-least-once delivery. `paddedSegments` of the envelope's range are
/// empty padding (observability only — padding is unrecoverable).
struct SubscriptionSnapshot {
  SubscriptionId id = 0;
  std::string node;
  std::uint64_t seq = 0;
  std::uint64_t paddedSegments = 0;
  SearchResultEnvelope envelope;

  void serialize(ByteWriter& w) const;
  static SubscriptionSnapshot deserialize(ByteReader& r);
};

/// Server-side standing matcher for one subscription (the successor of
/// the seed's StandingSearch stub — the single stream-search entry point
/// for subscriptions). Not synchronized: the owner (SubscriptionHost)
/// serializes access.
class SubscriptionMatcher {
 public:
  SubscriptionMatcher(SubscriptionSpec spec, std::uint64_t seed,
                      std::int64_t nowMs);

  /// Matches one ingested document at stream position `offset` (positions
  /// must be contiguous and increasing within a batch; the first feed
  /// after a seal fixes the next base). `matchText` drives the dictionary
  /// match; `payload` is what the client recovers. An oversized payload
  /// is folded as an empty segment (keeps positions contiguous, can never
  /// be recovered) and reported by returning false.
  bool feed(std::uint64_t offset, std::string_view matchText,
            std::string_view payload, std::int64_t nowMs);

  /// True when the in-progress batch hit the fill threshold or its period
  /// expired. Always false for an empty batch.
  bool due(std::int64_t nowMs) const;

  /// Seals the in-progress batch (padded up to l_F segments) into an
  /// envelope and leaves the matcher unarmed. nullopt when the batch is
  /// empty. Sealing is cheap; arming the next batch is not, so it is a
  /// separate step the owner may run outside its own lock.
  std::optional<SubscriptionSnapshot> seal(std::int64_t nowMs);

  /// seal() only when due().
  std::optional<SubscriptionSnapshot> sealIfDue(std::int64_t nowMs);

  /// Arms the next batch after a seal: fresh buffers, then the PRF seed,
  /// then the Bloom seed, drawn from the matcher's rng in that order (so
  /// envelope bytes do not depend on when the arming runs). A no-op on an
  /// armed matcher; feed() calls it first, so a seal need not be followed
  /// by an explicit rearm(). Touches only the searcher and its rng, never
  /// the counters the accessors below read.
  void rearm();

  const SubscriptionSpec& spec() const { return spec_; }
  const Dictionary& dictionary() const { return dict_; }

  std::uint64_t documentsSeen() const { return documentsSeen_; }
  std::uint64_t documentsOversized() const { return documentsOversized_; }
  std::uint64_t batchDocuments() const { return batchDocuments_; }
  std::uint64_t snapshotsSealed() const { return snapshotsSealed_; }
  /// Fill of the in-progress batch vs the fill threshold, in percent
  /// (0 when the fill trigger is disabled) — the public quantity the
  /// /statusz subscriptions section reports.
  std::uint64_t fillPercent() const;

 private:
  SubscriptionSpec spec_;
  Dictionary dict_;
  Rng rng_;
  StreamSearcher searcher_;
  bool armed_ = true;  // the constructor arms the first batch
  std::int64_t batchStartMs_ = 0;
  std::uint64_t batchDocuments_ = 0;
  std::uint64_t documentsSeen_ = 0;
  std::uint64_t documentsOversized_ = 0;
  std::uint64_t snapshotsSealed_ = 0;
};

/// One document recovered from a subscription snapshot.
struct RecoveredDocument {
  /// Origin stream ("<node>/<dataSource>" in the cluster): stream
  /// positions are only unique per origin.
  std::string stream;
  std::uint64_t streamIndex = 0;
  std::uint64_t cValue = 0;  // |K ∩ W_i| — how many query keywords hit
  crypto::PlaintextBytes payload;
};

/// Client-side incremental reconstruction: applies snapshots as they
/// arrive (any order, replays welcome) and accumulates each recovered
/// document exactly once, keyed by (stream, position). This lives in a
/// client translation unit — opening an envelope needs the private key,
/// which a server-role TU cannot even construct.
class SubscriptionFeed {
 public:
  explicit SubscriptionFeed(const crypto::PaillierPrivateKey& priv)
      : reconstructor_(priv) {}

  /// Opens one snapshot envelope; returns only the documents not already
  /// recovered from an earlier (possibly replayed) snapshot.
  std::vector<RecoveredDocument> apply(std::string_view stream,
                                       const SearchResultEnvelope& env);

  using DocKey = std::pair<std::string, std::uint64_t>;
  const std::map<DocKey, RecoveredDocument>& documents() const {
    return documents_;
  }
  std::uint64_t snapshotsApplied() const { return snapshotsApplied_; }
  std::uint64_t duplicatesDropped() const { return duplicatesDropped_; }

 private:
  Reconstructor reconstructor_;
  std::map<DocKey, RecoveredDocument> documents_;
  std::uint64_t snapshotsApplied_ = 0;
  std::uint64_t duplicatesDropped_ = 0;
};

}  // namespace dpss::pss
