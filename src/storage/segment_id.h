// Segment identity (§III): "The segment's identifier is composed of data
// source identifier, the time interval of the data, a version string that
// increases whenever a new segment is created, and a partition number."
#pragma once

#include <cstddef>
#include <string>

#include "common/bytes.h"
#include "common/interval.h"

namespace dpss::storage {

struct SegmentId {
  std::string dataSource;
  Interval interval;
  std::string version;  // lexicographically increasing (e.g. zero-padded)
  std::uint32_t partition = 0;

  /// "<dataSource>/<start>-<end>/<version>/<partition>" — unique key used
  /// for deep-storage blobs, znode names, cache directories.
  std::string toString() const;

  /// Real-time segments carry the fixed version "rt" (chosen so any
  /// handed-off historical version "v…" overshadows them) and keep
  /// mutating as events arrive — unlike every other segment, their
  /// contents are NOT identified by the id.
  bool mutableRealtime() const { return version == kRealtimeVersion; }
  static constexpr const char* kRealtimeVersion = "rt";
  static SegmentId parse(const std::string& s);

  void serialize(ByteWriter& w) const;
  static SegmentId deserialize(ByteReader& r);
  /// Two strings, two i64 and a u32: the fewest bytes an encoding takes.
  static constexpr std::size_t kMinWireBytes = 22;

  friend bool operator==(const SegmentId& a, const SegmentId& b) = default;
  /// Lexicographic on (dataSource, interval, version, partition).
  friend bool operator<(const SegmentId& a, const SegmentId& b);
};

}  // namespace dpss::storage

template <>
struct std::hash<dpss::storage::SegmentId> {
  std::size_t operator()(const dpss::storage::SegmentId& id) const {
    return std::hash<std::string>{}(id.toString());
  }
};
