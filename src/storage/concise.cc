#include "storage/concise.h"

#include "common/error.h"

namespace dpss::storage {

namespace {
constexpr std::uint32_t kLiteralFlag = 0x80000000u;
constexpr std::uint32_t kFillOneFlag = 0x40000000u;
constexpr std::uint32_t kPayloadMask = 0x7fffffffu;
constexpr std::size_t kChunkBits = 31;
constexpr std::uint32_t kMaxFillRun = 0x3fffffffu;
}  // namespace

/// Streams the logical sequence of 31-bit chunks out of the word array.
class ConciseBitmap::ChunkCursor {
 public:
  explicit ChunkCursor(const std::vector<std::uint32_t>& words)
      : words_(words) {}

  /// Next 31-bit payload chunk; all-zero/all-one fills expand lazily.
  std::uint32_t next() {
    if (fillRemaining_ > 0) {
      --fillRemaining_;
      return fillPayload_;
    }
    DPSS_CHECK_MSG(idx_ < words_.size(), "chunk cursor exhausted");
    const std::uint32_t word = words_[idx_++];
    if (word & kLiteralFlag) return word & kPayloadMask;
    fillRemaining_ = (word & kMaxFillRun);  // run-1 further chunks
    fillPayload_ = (word & kFillOneFlag) ? kPayloadMask : 0;
    return fillPayload_;
  }

  bool done() const { return fillRemaining_ == 0 && idx_ == words_.size(); }

 private:
  const std::vector<std::uint32_t>& words_;
  std::size_t idx_ = 0;
  std::size_t fillRemaining_ = 0;
  std::uint32_t fillPayload_ = 0;
};

void ConciseBitmap::appendChunk(std::uint32_t payload) {
  payload &= kPayloadMask;
  const bool allZero = payload == 0;
  const bool allOne = payload == kPayloadMask;
  if ((allZero || allOne) && !words_.empty()) {
    std::uint32_t& last = words_.back();
    const bool lastIsFill = (last & kLiteralFlag) == 0;
    if (lastIsFill) {
      const bool lastOnes = (last & kFillOneFlag) != 0;
      const std::uint32_t run = last & kMaxFillRun;
      if (lastOnes == allOne && run < kMaxFillRun) {
        last = (last & ~kMaxFillRun) | (run + 1);
        return;
      }
    }
  }
  if (allZero) {
    words_.push_back(0);  // zero-fill of run 1
  } else if (allOne) {
    words_.push_back(kFillOneFlag);  // one-fill of run 1
  } else {
    words_.push_back(kLiteralFlag | payload);
  }
}

ConciseBitmap ConciseBitmap::fromPositions(
    const std::vector<std::size_t>& positions, std::size_t size) {
  ConciseBitmap out;
  out.size_ = size;
  const std::size_t chunks = (size + kChunkBits - 1) / kChunkBits;
  std::size_t p = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * kChunkBits;
    const std::size_t hi = lo + kChunkBits;
    std::uint32_t payload = 0;
    while (p < positions.size() && positions[p] < hi) {
      DPSS_CHECK_MSG(positions[p] >= lo,
                     "positions must be sorted and distinct");
      DPSS_CHECK_MSG(positions[p] < size, "position beyond bitmap size");
      payload |= 1u << (positions[p] - lo);
      ++p;
    }
    out.appendChunk(payload);
  }
  DPSS_CHECK_MSG(p == positions.size(), "position beyond bitmap size");
  return out;
}

ConciseBitmap ConciseBitmap::fromBitmap(const Bitmap& plain) {
  return fromPositions(plain.toPositions(), plain.size());
}

std::size_t ConciseBitmap::cardinality() const {
  std::size_t count = 0;
  std::size_t chunkIndex = 0;
  const std::size_t totalChunks = (size_ + kChunkBits - 1) / kChunkBits;
  const std::size_t tailBits =
      size_ - (totalChunks == 0 ? 0 : (totalChunks - 1) * kChunkBits);
  for (const auto word : words_) {
    if (word & kLiteralFlag) {
      std::uint32_t payload = word & kPayloadMask;
      if (chunkIndex == totalChunks - 1 && tailBits < kChunkBits) {
        payload &= (1u << tailBits) - 1;
      }
      count += static_cast<std::size_t>(__builtin_popcount(payload));
      ++chunkIndex;
    } else {
      const std::size_t run = (word & kMaxFillRun) + 1;
      if (word & kFillOneFlag) {
        for (std::size_t i = 0; i < run; ++i) {
          const bool lastChunk = (chunkIndex + i == totalChunks - 1);
          count += (lastChunk && tailBits < kChunkBits) ? tailBits : kChunkBits;
        }
      }
      chunkIndex += run;
    }
  }
  return count;
}

bool ConciseBitmap::get(std::size_t pos) const {
  DPSS_CHECK_MSG(pos < size_, "bitmap position out of range");
  const std::size_t target = pos / kChunkBits;
  const std::size_t bit = pos % kChunkBits;
  std::size_t chunk = 0;
  for (const auto word : words_) {
    if (word & kLiteralFlag) {
      if (chunk == target) return ((word >> bit) & 1) != 0;
      ++chunk;
    } else {
      const std::size_t run = (word & kMaxFillRun) + 1;
      if (target < chunk + run) return (word & kFillOneFlag) != 0;
      chunk += run;
    }
  }
  return false;
}

ConciseBitmap operator&(const ConciseBitmap& a, const ConciseBitmap& b) {
  DPSS_CHECK_MSG(a.size_ == b.size_, "bitmap size mismatch");
  ConciseBitmap out;
  out.size_ = a.size_;
  ConciseBitmap::ChunkCursor ca(a.words_), cb(b.words_);
  const std::size_t chunks = (a.size_ + kChunkBits - 1) / kChunkBits;
  for (std::size_t i = 0; i < chunks; ++i) {
    out.appendChunk(ca.next() & cb.next());
  }
  return out;
}

ConciseBitmap operator|(const ConciseBitmap& a, const ConciseBitmap& b) {
  DPSS_CHECK_MSG(a.size_ == b.size_, "bitmap size mismatch");
  ConciseBitmap out;
  out.size_ = a.size_;
  ConciseBitmap::ChunkCursor ca(a.words_), cb(b.words_);
  const std::size_t chunks = (a.size_ + kChunkBits - 1) / kChunkBits;
  for (std::size_t i = 0; i < chunks; ++i) {
    out.appendChunk(ca.next() | cb.next());
  }
  return out;
}

ConciseBitmap ConciseBitmap::operator~() const {
  ConciseBitmap out;
  out.size_ = size_;
  ChunkCursor cursor(words_);
  const std::size_t chunks = (size_ + kChunkBits - 1) / kChunkBits;
  for (std::size_t i = 0; i < chunks; ++i) {
    std::uint32_t payload = (~cursor.next()) & kPayloadMask;
    if (i == chunks - 1) {
      // Mask bits beyond the logical size so NOT stays within [0, size).
      const std::size_t tail = size_ - i * kChunkBits;
      if (tail < kChunkBits) payload &= (1u << tail) - 1;
    }
    out.appendChunk(payload);
  }
  return out;
}

bool operator==(const ConciseBitmap& a, const ConciseBitmap& b) {
  if (a.size_ != b.size_) return false;
  ConciseBitmap::ChunkCursor ca(a.words_), cb(b.words_);
  const std::size_t chunks = (a.size_ + kChunkBits - 1) / kChunkBits;
  const std::size_t tail = a.size_ - (chunks == 0 ? 0 : (chunks - 1) * kChunkBits);
  for (std::size_t i = 0; i < chunks; ++i) {
    std::uint32_t xa = ca.next();
    std::uint32_t xb = cb.next();
    if (i == chunks - 1 && tail < kChunkBits) {
      const std::uint32_t mask = (1u << tail) - 1;
      xa &= mask;
      xb &= mask;
    }
    if (xa != xb) return false;
  }
  return true;
}

Bitmap ConciseBitmap::toBitmap() const {
  Bitmap out(size_);
  forEach([&](std::size_t pos) {
    out.set(pos);
    return true;
  });
  return out;
}

std::vector<std::size_t> ConciseBitmap::toPositions() const {
  std::vector<std::size_t> out;
  forEach([&](std::size_t pos) {
    out.push_back(pos);
    return true;
  });
  return out;
}

void ConciseBitmap::serialize(ByteWriter& w) const {
  w.varint(size_);
  w.varint(words_.size());
  for (const auto word : words_) w.u32(word);
}

ConciseBitmap ConciseBitmap::deserialize(ByteReader& r) {
  ConciseBitmap out;
  out.size_ = r.varint();
  const std::uint64_t n = r.count(4);  // one u32 per word
  out.words_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.words_.push_back(r.u32());
  return out;
}

}  // namespace dpss::storage
