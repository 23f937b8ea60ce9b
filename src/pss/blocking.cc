#include "pss/blocking.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/error.h"
#include "common/hash.h"

namespace dpss::pss {

namespace {
std::uint32_t checksum32(std::string_view bytes) {
  return static_cast<std::uint32_t>(fnv1a(bytes) & 0xffffffffu);
}
}  // namespace

BlockCodec::BlockCodec(std::size_t blockBytes) : blockBytes_(blockBytes) {
  DPSS_CHECK_MSG(blockBytes >= 8, "block width must be at least 8 bytes");
}

std::size_t BlockCodec::blockCount(std::size_t payloadSize) const {
  // Frame: varint length (<= 9 bytes for any realistic payload) + payload
  // + 4 checksum bytes.
  ByteWriter w;
  w.varint(payloadSize);
  const std::size_t framed = w.size() + payloadSize + 4;
  return (framed + blockBytes_ - 1) / blockBytes_;
}

std::vector<crypto::Bigint> BlockCodec::encode(std::string_view payload,
                                               std::size_t totalBlocks) const {
  ByteWriter w;
  w.varint(payload.size());
  w.raw(payload);
  w.u32(checksum32(payload));
  std::string framed = w.take();
  const std::size_t needed = (framed.size() + blockBytes_ - 1) / blockBytes_;
  if (needed > totalBlocks) {
    throw InvalidArgument("payload of " + std::to_string(payload.size()) +
                          " bytes needs " + std::to_string(needed) +
                          " blocks, only " + std::to_string(totalBlocks) +
                          " available");
  }
  framed.resize(totalBlocks * blockBytes_, '\0');

  // Little-endian blocks: the frame lands in the low-order bytes and the
  // padding in the high-order ones, so a short last block is a short
  // exponent in the fold's E(c)^f.
  std::vector<crypto::Bigint> blocks;
  blocks.reserve(totalBlocks);
  std::string bigEndian;
  for (std::size_t b = 0; b < totalBlocks; ++b) {
    bigEndian.assign(framed, b * blockBytes_, blockBytes_);
    std::reverse(bigEndian.begin(), bigEndian.end());
    blocks.push_back(crypto::Bigint::fromBytes(bigEndian));
  }
  return blocks;
}

crypto::PlaintextBytes BlockCodec::decode(
    const std::vector<crypto::Bigint>& blocks) const {
  std::string framed;
  framed.reserve(blocks.size() * blockBytes_);
  for (const auto& block : blocks) {
    const std::string bytes = block.toBytes();
    if (bytes.size() > blockBytes_) {
      throw CorruptData("block wider than codec width");
    }
    // Big-endian minimal bytes -> the block's blockBytes little-endian
    // bytes: reversed value, then the high-order zeros it dropped.
    framed.append(bytes.rbegin(), bytes.rend());
    framed.append(blockBytes_ - bytes.size(), '\0');
  }
  ByteReader r(framed);
  const std::uint64_t len = r.varint();
  if (len > r.remaining()) throw CorruptData("length exceeds frame");
  std::string payload(r.raw(len));
  const std::uint32_t expect = r.u32();
  if (checksum32(payload) != expect) {
    throw CorruptData("payload checksum mismatch");
  }
  return crypto::PlaintextBytes(std::move(payload));
}

}  // namespace dpss::pss
