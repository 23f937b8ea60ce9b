// Hot-path microbench for the Paillier/PSS pipeline: fast vs reference
// encryption (g = n+1 shortcut vs generic double exponentiation), CRT and
// batched decryption, and whole-session document throughput (packed and
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
#include <vector>

#include "common/rng.h"
#include "crypto/paillier.h"
#include "pss/dictionary.h"
#include "pss/session.h"

namespace {

using namespace dpss;
using namespace dpss::crypto;
using SteadyClock = std::chrono::steady_clock;

/// Microseconds per iteration of `fn` over `iters` runs.
template <typename Fn>
double usPerIter(int iters, Fn&& fn) {
  const auto t0 = SteadyClock::now();
  for (int i = 0; i < iters; ++i) fn(i);
  const auto dt =
      std::chrono::duration<double, std::micro>(SteadyClock::now() - t0);
  return dt.count() / iters;
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

  // --- encryption: generic reference vs g = n+1 fast path --------------
  {
    const int iters = quick ? 30 : 200;
    Rng rng(7);
    std::vector<Bigint> ms;
    for (int i = 0; i < iters; ++i) {
      ms.push_back(Bigint::randomBelow(rng, pub.n()));
    }
    Rng rGeneric(11), rFast(11);
    const double genericUs = usPerIter(
        iters, [&](int i) { (void)pub.encryptGeneric(ms[i], rGeneric); });
    const double fastUs =
        usPerIter(iters, [&](int i) { (void)pub.encrypt(ms[i], rFast); });
    std::printf(
        "  \"encrypt\": {\"iters\": %d, \"generic_us\": %.1f, "
        "\"fast_us\": %.1f, \"fast_speedup\": %.2f},\n",
        iters, genericUs, fastUs, genericUs / fastUs);
  }

  // --- decryption: standard vs CRT vs batched CRT ----------------------
  {
    const int iters = quick ? 30 : 200;
    Rng rng(17);
    std::vector<Ciphertext> cs;
    for (int i = 0; i < iters; ++i) {
      cs.push_back(pub.encrypt(Bigint::randomBelow(rng, pub.n()), rng));
    }
    const double stdUs =
        usPerIter(iters, [&](int i) { (void)kp.priv.decrypt(cs[i]); });
    const double crtUs =
        usPerIter(iters, [&](int i) { (void)kp.priv.decryptCrt(cs[i]); });
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
