// Byte codecs for metastore rows (SegmentRecord, LoadRules), shared by
// the substrate wire protocol (src/net/substrate.cc) and the metastore
// journal/snapshot files (cluster/metastore_journal.cc) — one format,
// whether the row crosses a socket or a disk.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/load_rules.h"
#include "cluster/metastore.h"
#include "common/bytes.h"

namespace dpss::cluster::meta_codec {

inline void writeRules(ByteWriter& w, const LoadRules& rules) {
  w.varint(rules.replicationFactor);
  w.i64(rules.retentionMs);
}

inline LoadRules readRules(ByteReader& r) {
  LoadRules rules;
  rules.replicationFactor = static_cast<std::size_t>(r.varint());
  rules.retentionMs = r.i64();
  return rules;
}

inline void writeRecord(ByteWriter& w, const SegmentRecord& rec) {
  rec.id.serialize(w);
  w.str(rec.deepStorageKey);
  w.u8(rec.used ? 1 : 0);
  w.varint(rec.sizeBytes);
}

inline SegmentRecord readRecord(ByteReader& r) {
  SegmentRecord rec;
  rec.id = storage::SegmentId::deserialize(r);
  rec.deepStorageKey = r.str();
  rec.used = r.u8() != 0;
  rec.sizeBytes = static_cast<std::size_t>(r.varint());
  return rec;
}

inline void writeRecords(ByteWriter& w,
                         const std::vector<SegmentRecord>& recs) {
  w.varint(recs.size());
  for (const auto& rec : recs) writeRecord(w, rec);
}

inline std::vector<SegmentRecord> readRecords(ByteReader& r) {
  // Smallest record: SegmentId (two empty strings, two i64, u32 = 22
  // bytes), an empty key, the used byte and a 1-byte size.
  const std::uint64_t n = r.count(25);
  std::vector<SegmentRecord> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(readRecord(r));
  return out;
}

inline void writeSubscription(ByteWriter& w, const SubscriptionRecord& rec) {
  w.varint(rec.id);
  w.str(rec.specBytes);
  w.i64(rec.createdMs);
}

inline SubscriptionRecord readSubscription(ByteReader& r) {
  SubscriptionRecord rec;
  rec.id = r.varint();
  rec.specBytes = r.str();
  rec.createdMs = r.i64();
  return rec;
}

inline void writeSubscriptions(ByteWriter& w,
                               const std::vector<SubscriptionRecord>& recs) {
  w.varint(recs.size());
  for (const auto& rec : recs) writeSubscription(w, rec);
}

inline std::vector<SubscriptionRecord> readSubscriptions(ByteReader& r) {
  // Smallest record: a 1-byte id, an empty spec and the i64 timestamp.
  const std::uint64_t n = r.count(10);
  std::vector<SubscriptionRecord> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(readSubscription(r));
  return out;
}

}  // namespace dpss::cluster::meta_codec
