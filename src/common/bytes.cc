#include "common/bytes.h"

#include <bit>

#include "common/error.h"

namespace dpss {

namespace {

/// Appends the little-endian bytes of `v` in one append (the shifts
/// compile to a single store on little-endian hosts).
template <typename T>
void appendLe(std::string& out, T v) {
  char bytes[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>(v >> (8 * i));
  }
  out.append(bytes, sizeof(T));
}

}  // namespace

void ByteWriter::u16(std::uint16_t v) { appendLe(out_, v); }

void ByteWriter::u32(std::uint32_t v) { appendLe(out_, v); }

void ByteWriter::u64(std::uint64_t v) { appendLe(out_, v); }

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::varint(std::uint64_t v) {
  while (v >= 0x80) {
    u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  u8(static_cast<std::uint8_t>(v));
}

void ByteWriter::svarint(std::int64_t v) {
  varint((static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63));
}

void ByteWriter::str(std::string_view s) {
  varint(s.size());
  out_.append(s);
}

void ByteReader::need(std::size_t n) const {
  if (remaining() < n) {
    throw CorruptData("byte reader overrun: need " + std::to_string(n) +
                      " bytes, have " + std::to_string(remaining()));
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

template <typename T>
T ByteReader::loadLe() {
  need(sizeof(T));
  const auto* p = reinterpret_cast<const unsigned char*>(data_.data() + pos_);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  pos_ += sizeof(T);
  return static_cast<T>(v);
}

std::uint16_t ByteReader::u16() { return loadLe<std::uint16_t>(); }

std::uint32_t ByteReader::u32() { return loadLe<std::uint32_t>(); }

std::uint64_t ByteReader::u64() { return loadLe<std::uint64_t>(); }

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (shift >= 64) throw CorruptData("varint too long");
    const std::uint8_t b = u8();
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

std::uint64_t ByteReader::count(std::size_t minBytesPerItem) {
  DPSS_CHECK_MSG(minBytesPerItem >= 1, "an item takes at least one byte");
  const std::uint64_t n = varint();
  if (n > remaining() / minBytesPerItem) {
    throw CorruptData("item count " + std::to_string(n) +
                      " exceeds the remaining " + std::to_string(remaining()) +
                      " bytes");
  }
  return n;
}

std::int64_t ByteReader::svarint() {
  const std::uint64_t z = varint();
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

std::string ByteReader::str() {
  const std::uint64_t n = varint();
  need(n);
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

std::string_view ByteReader::raw(std::size_t n) {
  need(n);
  std::string_view s = data_.substr(pos_, n);
  pos_ += n;
  return s;
}

}  // namespace dpss
