// Client segment reconstruction (§III-C, Steps 3 and 4).
//
//   3.1 decrypt the three buffers with the private key — here opened
//       lazily: a Bloom slot is only zero-tested on one CRT half
//       (PaillierPrivateKey::isZeroModP), and only when the scan reaches
//       it; the c and data buffers are decrypted only when a candidate
//       survives the scan
//   3.2 Bloom-scan indices i ∈ [firstIndex, firstIndex + t): i is a
//       candidate when all k slots h_1(i)..h_k(i) are non-zero; on
//       underflow, pad with arbitrary non-candidate indices ("pick") so
//       the candidate list has exactly l_F entries
//   3.3 solve A·c = C' (mod n) where A[r][j] = g(a_r, j); indices with
//       c = 0 are Bloom false positives; zeros are then replaced by ones
//   4   solve A·diag(c)·f = F' blockwise and decode the payloads
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/paillier.h"
#include "pss/searcher.h"

namespace dpss::pss {

/// One recovered matching segment. The payload is privacy-typed
/// (crypto/sensitive.h): a decrypted matched document can be compared
/// and carried around, but reading the raw bytes back out requires the
/// lint-audited releaseForClientReconstruction escape hatch, and
/// serializing it into a Frame/Envelope does not compile.
struct RecoveredSegment {
  std::uint64_t index = 0;   // position in the stream
  std::uint64_t cValue = 0;  // |K ∩ W_i| — how many query keywords matched
  crypto::PlaintextBytes payload;  // exact original bytes, privacy-typed

  friend bool operator==(const RecoveredSegment& a,
                         const RecoveredSegment& b) = default;
};

/// Thrown when matches + Bloom false positives exceed l_F: the batch held
/// more matching segments than the buffers can carry. The client should
/// retry with larger buffers (detectable overflow, unlike a silent loss).
class BufferOverflow : public Error {
 public:
  explicit BufferOverflow(const std::string& what) : Error(what) {}
};

class Reconstructor {
 public:
  explicit Reconstructor(const crypto::PaillierPrivateKey& priv);

  /// Runs Steps 3–4 on one envelope. Returns matching segments ordered by
  /// stream index. Throws BufferOverflow, CryptoError (singular matrix,
  /// retry batch with a fresh seed), or InvalidArgument for an envelope
  /// of t >= p >> 32 segments, whose Bloom slots the zero test could not
  /// decide exactly (unreachable for keys of 128 bits and up).
  std::vector<RecoveredSegment> reconstruct(
      const SearchResultEnvelope& envelope) const;

 private:
  const crypto::PaillierPrivateKey& priv_;
};

}  // namespace dpss::pss
