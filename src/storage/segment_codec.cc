#include "storage/segment_codec.h"

#include "common/bytes.h"
#include "common/error.h"
#include "common/hash.h"
#include "storage/lzf.h"

namespace dpss::storage {

namespace {
constexpr char kMagic[] = "DPS1";
}

std::string encodeSegment(const Segment& segment) {
  ByteWriter w;
  w.raw(kMagic);
  segment.id().serialize(w);
  segment.schema().serialize(w);
  const std::size_t rows = segment.rowCount();
  w.varint(rows);

  // Timestamps: delta + signed varint, then LZF.
  {
    ByteWriter col;
    TimeMs prev = 0;
    for (const auto t : segment.timestamps()) {
      col.svarint(t - prev);
      prev = t;
    }
    w.str(lzfCompress(col.data()));
  }

  // Dimensions: dictionary, packed ids, inverted indexes.
  for (std::size_t d = 0; d < segment.schema().dimensions.size(); ++d) {
    const auto& col = segment.dim(d);
    ByteWriter dictBytes;
    col.dict.serialize(dictBytes);
    w.str(lzfCompress(dictBytes.data()));

    ByteWriter ids;
    for (const auto id : col.ids) ids.varint(id);
    w.str(lzfCompress(ids.data()));

    ByteWriter bitmaps;
    bitmaps.varint(col.bitmaps.size());
    for (const auto& b : col.bitmaps) b.serialize(bitmaps);
    w.str(lzfCompress(bitmaps.data()));
  }

  // Metrics.
  for (std::size_t m = 0; m < segment.schema().metrics.size(); ++m) {
    const auto& col = segment.metric(m);
    ByteWriter vals;
    if (col.type == MetricType::kLong) {
      for (const auto v : col.longs) vals.svarint(v);
    } else {
      for (const auto v : col.doubles) vals.f64(v);
    }
    w.str(lzfCompress(vals.data()));
  }

  std::string out = w.take();
  ByteWriter tail;
  tail.u64(fnv1a(out));
  out += tail.data();
  return out;
}

SegmentPtr decodeSegment(const std::string& blob) {
  if (blob.size() < 12) throw CorruptData("segment blob too small");
  const std::string_view body(blob.data(), blob.size() - 8);
  {
    ByteReader tail(std::string_view(blob).substr(blob.size() - 8));
    if (tail.u64() != fnv1a(body)) {
      throw CorruptData("segment blob checksum mismatch");
    }
  }
  ByteReader r(body);
  if (r.raw(4) != std::string_view(kMagic, 4)) {
    throw CorruptData("bad segment magic");
  }
  SegmentId id = SegmentId::deserialize(r);
  Schema schema = Schema::deserialize(r);
  const std::uint64_t rows = r.varint();

  std::vector<TimeMs> timestamps;
  {
    const std::string colBytes = lzfDecompress(r.str());
    ByteReader col(colBytes);
    // Each row's timestamp delta takes at least one byte of this column,
    // which bounds every per-row reserve below by the decompressed input.
    if (rows > col.remaining()) {
      throw CorruptData("segment row count " + std::to_string(rows) +
                        " exceeds its " + std::to_string(col.remaining()) +
                        "-byte timestamp column");
    }
    timestamps.reserve(rows);
    TimeMs prev = 0;
    for (std::size_t i = 0; i < rows; ++i) {
      prev += col.svarint();
      timestamps.push_back(prev);
    }
  }

  std::vector<Segment::DimColumn> dims(schema.dimensions.size());
  for (auto& col : dims) {
    {
      const std::string dictBytes = lzfDecompress(r.str());
      ByteReader dr(dictBytes);
      col.dict = StringDictionary::deserialize(dr);
    }
    {
      const std::string idBytes = lzfDecompress(r.str());
      ByteReader ir(idBytes);
      col.ids.reserve(rows);
      for (std::size_t i = 0; i < rows; ++i) {
        col.ids.push_back(static_cast<std::uint32_t>(ir.varint()));
      }
    }
    {
      const std::string bitmapBytes = lzfDecompress(r.str());
      ByteReader br(bitmapBytes);
      // A serialized bitmap is at least its two varint headers.
      const std::uint64_t n = br.count(2);
      col.bitmaps.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        col.bitmaps.push_back(ConciseBitmap::deserialize(br));
      }
    }
  }

  std::vector<Segment::MetricColumn> metrics(schema.metrics.size());
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    auto& col = metrics[m];
    col.type = schema.metrics[m].type;
    const std::string valBytes = lzfDecompress(r.str());
    ByteReader vr(valBytes);
    if (col.type == MetricType::kLong) {
      col.longs.reserve(rows);
      for (std::size_t i = 0; i < rows; ++i) col.longs.push_back(vr.svarint());
    } else {
      col.doubles.reserve(rows);
      for (std::size_t i = 0; i < rows; ++i) col.doubles.push_back(vr.f64());
    }
  }

  return std::make_shared<Segment>(std::move(id), std::move(schema),
                                   std::move(timestamps), std::move(dims),
                                   std::move(metrics));
}

}  // namespace dpss::storage
