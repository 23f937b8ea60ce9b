#include "pss/reconstruct.h"

#include <algorithm>

#include "common/error.h"
#include "crypto/prf.h"
#include "pss/blocking.h"
#include "pss/linear_solver.h"

namespace dpss::pss {

using crypto::Bigint;

Reconstructor::Reconstructor(const crypto::PaillierPrivateKey& priv)
    : priv_(priv) {}

std::vector<RecoveredSegment> Reconstructor::reconstruct(
    const SearchResultEnvelope& env) const {
  const auto& pub = priv_.publicKey();
  const Bigint& n = pub.n();
  const std::size_t lf = env.params.bufferLength;
  const std::size_t blocks = env.buffers.blocksPerSegment();
  DPSS_CHECK_MSG(env.buffers.bufferLength() == lf, "buffer length mismatch");

  if (env.segmentsProcessed == 0) return {};
  DPSS_CHECK_MSG(env.segmentsProcessed >= lf,
                 "batch must process at least l_F segments (paper: t > l_F)");

  // ---- Step 3.2: Bloom candidate extraction on lazy zero tests. -----
  // The scan only asks whether a Bloom slot is zero. Each of the t
  // segments adds its c-value (at most |K|) into a slot at most k times,
  // so a slot's plaintext is at most t·k·|K|, below p whenever
  // k·|K| < 2^32 and t < p >> 32; then isZeroModP — one exponentiation
  // mod p² — decides the slot exactly. A slot is tested when a probe
  // first reaches it and the answer is memoized; an index stops probing
  // at its first zero slot, so a slot no probe reaches is never opened.
  if (!priv_.zeroTestCovers(env.segmentsProcessed)) {
    throw InvalidArgument("envelope covers " +
                          std::to_string(env.segmentsProcessed) +
                          " segments, too many for the Bloom zero test");
  }
  const std::size_t li = env.buffers.indexBufferLength();
  DPSS_CHECK_MSG(li == env.params.indexBufferLength,
                 "index buffer length mismatch");
  enum class Slot : std::uint8_t { kUntested, kZero, kNonZero };
  std::vector<Slot> bloomSlots(li, Slot::kUntested);
  const auto slotIsZero = [&](std::size_t s) {
    if (bloomSlots[s] == Slot::kUntested) {
      bloomSlots[s] =
          priv_.isZeroModP(env.buffers.match(s)) ? Slot::kZero : Slot::kNonZero;
    }
    return bloomSlots[s] == Slot::kZero;
  };
  const crypto::BloomHashFamily bloom(env.bloomSeed, env.params.bloomHashes,
                                      env.params.indexBufferLength);
  const std::uint64_t lo = env.firstIndex;
  const std::uint64_t hi = env.firstIndex + env.segmentsProcessed;
  std::vector<std::uint64_t> candidates;
  for (std::uint64_t i = lo; i < hi; ++i) {
    bool allSet = true;
    for (std::size_t t = 0; t < bloom.k(); ++t) {
      if (slotIsZero(bloom.hash(t, i))) {
        allSet = false;
        break;
      }
    }
    if (allSet) candidates.push_back(i);
  }
  if (candidates.size() > lf) {
    throw BufferOverflow(
        "matches + Bloom false positives (" +
        std::to_string(candidates.size()) + ") exceed buffer length (" +
        std::to_string(lf) + "); retry with larger l_F / l_I");
  }
  if (candidates.empty()) return {};

  // ---- Step 3.1: decrypt the c and data buffers. --------------------
  // Only once a candidate survives: all l_F·(s+1) slots in one batched
  // CRT pass (element-wise equal to per-slot decryptCrt).
  std::vector<crypto::Ciphertext> slots;
  slots.reserve(lf * (blocks + 1));
  for (std::size_t j = 0; j < lf; ++j) slots.push_back(env.buffers.c(j));
  for (std::size_t j = 0; j < lf; ++j) {
    for (std::size_t b = 0; b < blocks; ++b) {
      slots.push_back(env.buffers.data(j, b));
    }
  }
  const std::vector<Bigint> plain = priv_.decryptCrtBatch(slots);

  // ---- Steps 3.3 + 4: solve A·c = C' and A·diag(c)·f = F'. -----------
  // Slot j accumulated Σ_r g(a_r, j)·c_{a_r}, so the coefficient matrix
  // has one row per buffer slot and one column per candidate index. Every
  // non-candidate column is known-zero (Bloom has no false negatives), so
  // the system stays l_F equations over only k = |candidates| unknowns —
  // the surplus rows make column-rank deficiency exponentially unlikely
  // instead of the ~45% singularity of a padded square 0/1 matrix. Both
  // right-hand sides share one elimination: column 0 is C', the rest F'.
  const std::size_t k = candidates.size();
  const crypto::BitPrf g(env.prfSeed);
  ModMatrix coeff(lf, k, n);
  for (std::size_t j = 0; j < lf; ++j) {
    for (std::size_t r = 0; r < k; ++r) {
      coeff.at(j, r) = Bigint(g(candidates[r], j) ? 1 : 0);
    }
  }
  ModMatrix rhs(lf, 1 + blocks, n);
  for (std::size_t j = 0; j < lf; ++j) {
    rhs.at(j, 0) = plain[j];
    for (std::size_t b = 0; b < blocks; ++b) {
      rhs.at(j, 1 + b) = plain[lf + j * blocks + b];
    }
  }
  const ModMatrix sol = solveConsistentSystem(coeff, rhs);

  // Exact matching indices: candidates whose c-value is non-zero; zero
  // c-values are Bloom false positives. Column 0 of the solution is c,
  // the remaining columns are y = diag(c)·f, so f_r = c_r^{-1}·y_r.
  const BlockCodec codec(BlockCodec::maxBlockBytesFor(pub.modulusBits()));
  std::vector<RecoveredSegment> out;
  for (std::size_t r = 0; r < k; ++r) {
    const Bigint& cValue = sol.at(r, 0);
    if (cValue.isZero()) continue;
    const Bigint cInv = Bigint::invert(cValue, n);
    std::vector<Bigint> blocksOut;
    blocksOut.reserve(blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
      blocksOut.push_back((sol.at(r, 1 + b) * cInv) % n);
    }
    RecoveredSegment seg;
    seg.index = candidates[r];
    seg.cValue = cValue.toUint64();
    seg.payload = codec.decode(blocksOut);
    out.push_back(std::move(seg));
  }
  return out;
}

}  // namespace dpss::pss
