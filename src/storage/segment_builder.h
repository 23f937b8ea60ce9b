// Builds immutable segments from rows, and merges segments (the real-time
// node's background task that "builds a historical segment while merging
// all indexes", §III-A-2).
#pragma once

#include <memory>
#include <vector>

#include "storage/segment.h"

namespace dpss::storage {

class SegmentBuilder {
 public:
  explicit SegmentBuilder(Schema schema);

  /// Queues a row. Rows may arrive in any time order; build() sorts.
  void add(InputRow row);

  std::size_t rowCount() const { return rows_.size(); }

  /// Materializes the columnar segment: sorts by timestamp, finalizes
  /// dictionaries to sorted order, builds one compressed inverted index
  /// per dimension value. The builder is left empty and reusable.
  SegmentPtr build(SegmentId id);

 private:
  Schema schema_;
  std::vector<InputRow> rows_;
};

/// Merges several segments with identical schemas into one (row-sorted,
/// re-indexed). Used for the real-time handoff merge.
SegmentPtr mergeSegments(const std::vector<SegmentPtr>& parts, SegmentId id);

}  // namespace dpss::storage
