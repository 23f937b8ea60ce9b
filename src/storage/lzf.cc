#include "storage/lzf.h"

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"

namespace dpss::storage {

namespace {

constexpr std::size_t kHashBits = 14;
constexpr std::size_t kHashSize = 1u << kHashBits;
constexpr std::size_t kMaxOffset = 1u << 13;  // 13-bit back offset
constexpr std::size_t kMaxLiteralRun = 32;
constexpr std::size_t kMaxRefLength = 255 + 9;
// Densest encoding: a 3-byte long back-reference expands to kMaxRefLength
// output bytes, so no stream decodes to more than this per input byte.
constexpr std::size_t kMaxExpansion = kMaxRefLength / 3;

std::uint32_t hash3(const unsigned char* p) {
  const std::uint32_t v =
      (static_cast<std::uint32_t>(p[0]) << 16) |
      (static_cast<std::uint32_t>(p[1]) << 8) | p[2];
  return ((v * 2654435761u) >> (32 - kHashBits)) & (kHashSize - 1);
}

}  // namespace

std::string lzfCompress(std::string_view input) {
  ByteWriter header;
  header.varint(input.size());
  std::string out = header.take();

  const auto* data = reinterpret_cast<const unsigned char*>(input.data());
  const std::size_t n = input.size();
  std::vector<std::size_t> table(kHashSize, static_cast<std::size_t>(-1));

  std::size_t pos = 0;
  std::size_t literalStart = 0;

  auto flushLiterals = [&](std::size_t end) {
    std::size_t start = literalStart;
    while (start < end) {
      const std::size_t run = std::min(kMaxLiteralRun, end - start);
      out.push_back(static_cast<char>(run - 1));  // 000LLLLL
      out.append(input.substr(start, run));
      start += run;
    }
    literalStart = end;
  };

  while (pos + 3 <= n) {
    const std::uint32_t h = hash3(data + pos);
    const std::size_t candidate = table[h];
    table[h] = pos;

    if (candidate != static_cast<std::size_t>(-1) && candidate < pos &&
        pos - candidate <= kMaxOffset &&
        data[candidate] == data[pos] && data[candidate + 1] == data[pos + 1] &&
        data[candidate + 2] == data[pos + 2]) {
      // Extend the match.
      std::size_t len = 3;
      const std::size_t maxLen = std::min(kMaxRefLength, n - pos);
      while (len < maxLen && data[candidate + len] == data[pos + len]) ++len;

      flushLiterals(pos);

      const std::size_t off = pos - candidate - 1;  // 0-based backwards
      if (len <= 8) {
        // LLLooooo oooooooo with LLL = len - 2 (3..6 -> codes 1..6)
        out.push_back(static_cast<char>(((len - 2) << 5) | (off >> 8)));
      } else {
        out.push_back(static_cast<char>((7u << 5) | (off >> 8)));
        out.push_back(static_cast<char>(len - 9));
      }
      out.push_back(static_cast<char>(off & 0xff));

      pos += len;
      literalStart = pos;
    } else {
      ++pos;
    }
  }
  flushLiterals(n);
  return out;
}

std::string lzfDecompress(std::string_view compressed) {
  ByteReader r(compressed);
  const std::uint64_t rawSize = r.varint();
  if (rawSize > r.remaining() * kMaxExpansion) {
    throw CorruptData("lzf declared size exceeds what the input can encode");
  }
  std::string out;
  out.reserve(rawSize);

  while (!r.done()) {
    const std::uint8_t ctrl = r.u8();
    if (ctrl < 32) {
      // Literal run of ctrl + 1 bytes.
      const std::size_t run = static_cast<std::size_t>(ctrl) + 1;
      out.append(r.raw(run));
    } else {
      std::size_t len = ctrl >> 5;
      if (len == 7) {
        len = static_cast<std::size_t>(r.u8()) + 9;
      } else {
        len += 2;
      }
      const std::size_t off =
          ((static_cast<std::size_t>(ctrl & 0x1f) << 8) | r.u8()) + 1;
      if (off > out.size()) {
        throw CorruptData("lzf back-reference before stream start");
      }
      // Overlapping copies are the point (run-length behaviour): byte-wise.
      std::size_t src = out.size() - off;
      for (std::size_t i = 0; i < len; ++i) out.push_back(out[src + i]);
    }
    if (out.size() > rawSize) {
      throw CorruptData("lzf output exceeds declared size");
    }
  }
  if (out.size() != rawSize) {
    throw CorruptData("lzf output shorter than declared size");
  }
  return out;
}

}  // namespace dpss::storage
