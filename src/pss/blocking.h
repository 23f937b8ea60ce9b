// Segment payload <-> Z_n block codec (§III-C: "for longer segments
// requiring s elements of Z_n ... operations are performed blockwise").
//
// A payload is framed as [varint length][bytes][u32 fnv checksum] and cut
// into fixed-width blocks of blockBytes each, interpreted as little-endian
// integers strictly below 2^(8·blockBytes) <= n. Little-endian puts the
// frame in each block's low-order bytes and the zero padding in its
// high-order bytes, so a block holding k frame bytes is below 2^(8k):
// the fold's exponent in E(c)^f costs only the frame bytes, not the
// block width. The checksum lets the Ostrovsky–Skeith baseline detect
// collision garbage; the three-buffer scheme gets it for free as an
// integrity check.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/bigint.h"
#include "crypto/sensitive.h"

namespace dpss::pss {

class BlockCodec {
 public:
  /// blockBytes >= 8; must satisfy 2^(8·blockBytes) <= n of the key in use.
  explicit BlockCodec(std::size_t blockBytes);

  /// Largest block width usable with a modulus of `modulusBits` bits.
  static std::size_t maxBlockBytesFor(std::size_t modulusBits) {
    return (modulusBits - 1) / 8;
  }

  std::size_t blockBytes() const { return blockBytes_; }

  /// Number of blocks needed for a payload of `payloadSize` bytes.
  std::size_t blockCount(std::size_t payloadSize) const;

  /// Encodes the payload into exactly `totalBlocks` blocks (zero-padded).
  /// Throws InvalidArgument when the payload does not fit.
  std::vector<crypto::Bigint> encode(std::string_view payload,
                                     std::size_t totalBlocks) const;

  /// Inverse of encode(). Throws CorruptData when the frame or checksum is
  /// invalid — the signal the OS05 baseline uses to reject collided slots.
  /// decode() is the moment decrypted buffer slots become a readable
  /// document, so the result is privacy-typed: a PlaintextBytes cannot be
  /// re-serialized into a Frame/Envelope (see crypto/sensitive.h).
  crypto::PlaintextBytes decode(const std::vector<crypto::Bigint>& blocks) const;

 private:
  std::size_t blockBytes_;
};

/// Blockwise ciphertext packing: `packFactor` consecutive documents share
/// one plaintext segment group, shrinking the per-document fold and
/// decryption cost by ~packFactor. The pack frame is
/// [varint count][varint len, bytes]×count; the group is then encoded /
/// folded / reconstructed like any other payload, and the client splits
/// it back into documents after reconstruction.
std::string packPayloads(const std::vector<std::string_view>& payloads);

/// Inverse of packPayloads. Throws CorruptData on a malformed frame.
std::vector<std::string> unpackPayloads(std::string_view packed);

/// Upper bound on the packed byte size of any group of at most
/// `packFactor` payloads each at most `maxPayload` bytes — what the
/// broker sizes s from when it only knows per-slice maxima.
std::size_t maxPackedBytes(std::size_t packFactor, std::size_t maxPayload);

}  // namespace dpss::pss
