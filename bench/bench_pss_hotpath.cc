// Hot-path microbench for the Paillier/PSS pipeline: fast vs reference
// encryption (g = n+1 shortcut vs generic double exponentiation), the
// client's CRT encryption vs public-key encryption, CRT and batched
// decryption, the fold's E(c)^f on a full-width block vs a short
// document's block, and whole-session document throughput (packed and
// unpacked).
//
// Prints a JSON document; BENCH_pss.json at the repo root is seeded from
// this output. scripts/check_bench.py pss re-runs `--quick` and compares
// the *speedup ratios* (fast/reference within one run), which are stable
// across machines, rather than absolute times, which are not.
//
// Usage: bench_pss_hotpath [--quick]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_timing.h"
#include "common/rng.h"
#include "crypto/paillier.h"
#include "pss/blocking.h"
#include "pss/dictionary.h"
#include "pss/session.h"

namespace {

using namespace dpss;
using namespace dpss::crypto;
using bench::interleavedMedianUs;
using bench::SteadyClock;

std::string randomBytes(Rng& rng, std::size_t len) {
  std::string out;
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng.next() & 0xff));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  constexpr std::size_t kKeyBits = 512;
  Rng keyRng(20260808);
  const PaillierKeyPair kp = generateKeyPair(kKeyBits, keyRng);
  const PaillierPublicKey& pub = kp.pub;

  std::printf("{\n  \"bench\": \"pss_hotpath\",\n");
  std::printf("  \"key_bits\": %zu,\n", kKeyBits);

  // --- encryption: generic reference vs g = n+1 fast path vs CRT -------
  {
    const int iters = quick ? 30 : 200;
    Rng rng(7);
    std::vector<Bigint> ms;
    for (int i = 0; i < iters; ++i) {
      ms.push_back(Bigint::randomBelow(rng, pub.n()));
    }
    Rng rGeneric(11), rFast(11);
    const auto [genericUs, fastUs] = interleavedMedianUs(
        iters, [&](int i) { (void)pub.encryptGeneric(ms[i], rGeneric); },
        [&](int i) { (void)pub.encrypt(ms[i], rFast); });
    // Client CRT encryption against public-key encryption, equal seeds so
    // both draw the same randomizers.
    Rng rPub(13), rCrt(13);
    const auto [pubUs, crtUs] = interleavedMedianUs(
        iters, [&](int i) { (void)pub.encrypt(ms[i], rPub); },
        [&](int i) { (void)kp.priv.encrypt(ms[i], rCrt); });
    std::printf(
        "  \"encrypt\": {\"iters\": %d, \"generic_us\": %.1f, "
        "\"fast_us\": %.1f, \"fast_speedup\": %.2f, \"crt_us\": %.1f, "
        "\"crt_speedup\": %.2f},\n",
        iters, genericUs, fastUs, genericUs / fastUs, crtUs, pubUs / crtUs);
  }

  // --- decryption: standard vs CRT vs batched CRT ----------------------
  {
    const int iters = quick ? 30 : 200;
    Rng rng(17);
    std::vector<Ciphertext> cs;
    for (int i = 0; i < iters; ++i) {
      cs.push_back(pub.encrypt(Bigint::randomBelow(rng, pub.n()), rng));
    }
    const auto [stdUs, crtUs] = interleavedMedianUs(
        iters, [&](int i) { (void)kp.priv.decrypt(cs[i]); },
        [&](int i) { (void)kp.priv.decryptCrt(cs[i]); });
    const auto t0 = SteadyClock::now();
    (void)kp.priv.decryptCrtBatch(cs);
    const double batchUs =
        std::chrono::duration<double, std::micro>(SteadyClock::now() - t0)
            .count() /
        iters;
    std::printf(
        "  \"decrypt\": {\"iters\": %d, \"standard_us\": %.1f, "
        "\"crt_us\": %.1f, \"batch_us_per_ct\": %.1f, "
        "\"crt_speedup\": %.2f},\n",
        iters, stdUs, crtUs, batchUs, stdUs / crtUs);
  }

  // --- fold: E(c)^f on a full-width block vs a short document's block ---
  {
    const int iters = quick ? 200 : 400;
    const pss::BlockCodec codec(pss::BlockCodec::maxBlockBytesFor(kKeyBits));
    Rng rng(23);
    const Ciphertext c = pub.encrypt(Bigint(1), rng);
    // A full block: the first block of a payload longer than one block.
    const std::string longPayload = randomBytes(rng, 3 * codec.blockBytes());
    const Bigint full =
        codec.encode(longPayload, codec.blockCount(longPayload.size()))[0];
    // The one block a 40-byte document encodes to.
    const Bigint shortBlock = codec.encode(randomBytes(rng, 40), 1)[0];
    const auto [fullUs, shortUs] = interleavedMedianUs(
        iters, [&](int) { (void)pub.mulPlain(c, full); },
        [&](int) { (void)pub.mulPlain(c, shortBlock); });
    std::printf(
        "  \"fold\": {\"iters\": %d, \"full_bits\": %zu, "
        "\"short_bits\": %zu, \"full_us\": %.1f, \"short_us\": %.1f, "
        "\"short_payload_speedup\": %.2f},\n",
        iters, full.bitLength(), shortBlock.bitLength(), fullUs, shortUs,
        fullUs / shortUs);
  }

  // --- whole session: documents/s, unpacked vs packed ------------------
  {
    // Quick still needs ⌈docs/3⌉ groups > l_F = 12 for the packed leg.
    const int docs = quick ? 48 : 96;
    const pss::Dictionary dict(
        {"alpha", "breach", "cipher", "delta", "echo", "fox"});
    // 96 docs at full scale put 8 matches in the stream; l_F leaves
    // headroom for those plus Bloom false positives, and pack=3 keeps
    // ⌈docs/3⌉ = 32 groups > l_F.
    const pss::SearchParams params{
        .bufferLength = 12, .indexBufferLength = 192, .bloomHashes = 3};
    std::vector<std::string> stream;
    for (int i = 0; i < docs; ++i) {
      stream.push_back((i % 12 == 5 ? "breach in document " : "document ") +
                       std::to_string(i));
    }
    std::printf("  \"session\": {\"documents\": %d", docs);
    for (const std::size_t pack : {std::size_t{1}, std::size_t{3}}) {
      pss::PrivateSearchClient client(dict, params, kKeyBits, 999);
      Rng brokerRng(777);
      const auto t0 = SteadyClock::now();
      const auto results = pss::runPrivateSearchPacked(
          client, {"breach"}, stream, pack, /*blocksPerSegment=*/0,
          brokerRng);
      const double secs =
          std::chrono::duration<double>(SteadyClock::now() - t0).count();
      std::printf(", \"docs_per_s_pack%zu\": %.1f, \"matches_pack%zu\": %zu",
                  pack, docs / secs, pack, results.size());
    }
    std::printf("}\n}\n");
  }
  return 0;
}
