// Byte-level serialization used by the segment codec, deep storage blobs,
// and the in-process transport. Little-endian fixed-width integers plus
// LEB128-style varints; all reads bounds-checked (CorruptData on overrun).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dpss {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);

  /// Unsigned LEB128.
  void varint(std::uint64_t v);
  /// Zig-zag signed LEB128.
  void svarint(std::int64_t v);

  /// varint length prefix + raw bytes.
  void str(std::string_view s);
  /// Raw bytes, no prefix.
  void raw(std::string_view s) { out_.append(s); }

  const std::string& data() const { return out_; }
  std::string take() { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

 private:
  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();

  std::uint64_t varint();
  std::int64_t svarint();

  std::string str();
  /// Reads exactly n raw bytes.
  std::string_view raw(std::size_t n);

  /// Reads a varint item count and refuses (CorruptData) one the
  /// remaining bytes cannot hold at `minBytesPerItem` (>= 1) bytes per
  /// item, so a forged count never sizes an allocation.
  std::uint64_t count(std::size_t minBytesPerItem);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const;
  /// One bounds check, then the little-endian value at the cursor.
  template <typename T>
  T loadLe();

  std::string_view data_;
  std::size_t pos_ = 0;
};

namespace detail {
/// Storage-only base so OwnedByteReader's string outlives the ByteReader
/// view constructed over it (bases initialize in declaration order).
struct OwnedBytes {
  explicit OwnedBytes(std::string data) : owned(std::move(data)) {}
  std::string owned;
};
}  // namespace detail

/// ByteReader over bytes it owns. ByteReader itself is a non-owning view,
/// so `ByteReader r(call(...))` silently reads a destroyed temporary; use
/// this wherever the backing string is an rvalue (RPC responses).
class OwnedByteReader : private detail::OwnedBytes, public ByteReader {
 public:
  explicit OwnedByteReader(std::string data)
      : detail::OwnedBytes(std::move(data)), ByteReader(owned) {}
};

}  // namespace dpss
