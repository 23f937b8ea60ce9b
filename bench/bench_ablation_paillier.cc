// Ablation — Paillier primitive costs vs key size: key generation,
// encryption, standard vs CRT decryption, homomorphic addition and
// plaintext-scalar multiplication (the per-segment hot operations of the
// broker's Step 2).
#include <benchmark/benchmark.h>

#include <map>

#include "crypto/paillier.h"

namespace {

using namespace dpss;
using namespace dpss::crypto;

PaillierKeyPair& keyFor(std::size_t bits) {
  static std::map<std::size_t, PaillierKeyPair> cache;
  auto it = cache.find(bits);
  if (it == cache.end()) {
    Rng rng(bits * 7 + 1);
    it = cache.emplace(bits, generateKeyPair(bits, rng)).first;
  }
  return it->second;
}

void BM_KeyGen(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        generateKeyPair(static_cast<std::size_t>(state.range(0)), rng));
  }
}
BENCHMARK(BM_KeyGen)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_Encrypt(benchmark::State& state) {
  auto& kp = keyFor(static_cast<std::size_t>(state.range(0)));
  Rng rng(7);
  const Bigint m = Bigint::randomBelow(rng, kp.pub.n());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pub.encrypt(m, rng));
  }
}
BENCHMARK(BM_Encrypt)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_Decrypt(benchmark::State& state) {
  auto& kp = keyFor(static_cast<std::size_t>(state.range(0)));
  Rng rng(7);
  const Ciphertext c = kp.pub.encrypt(Bigint(123456), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.priv.decrypt(c));
  }
}
BENCHMARK(BM_Decrypt)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_DecryptCrt(benchmark::State& state) {
  auto& kp = keyFor(static_cast<std::size_t>(state.range(0)));
  Rng rng(7);
  const Ciphertext c = kp.pub.encrypt(Bigint(123456), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.priv.decryptCrt(c));
  }
}
BENCHMARK(BM_DecryptCrt)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_AddCipher(benchmark::State& state) {
  auto& kp = keyFor(static_cast<std::size_t>(state.range(0)));
  Rng rng(7);
  const Ciphertext a = kp.pub.encrypt(Bigint(1), rng);
  const Ciphertext b = kp.pub.encrypt(Bigint(2), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pub.addCipher(a, b));
  }
}
BENCHMARK(BM_AddCipher)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_MulPlain(benchmark::State& state) {
  // The data-buffer update E(c)^f with a full-width block exponent.
  auto& kp = keyFor(static_cast<std::size_t>(state.range(0)));
  Rng rng(7);
  const Ciphertext c = kp.pub.encrypt(Bigint(3), rng);
  const Bigint block =
      Bigint::randomBits(rng, kp.pub.modulusBits() - 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pub.mulPlain(c, block));
  }
}
BENCHMARK(BM_MulPlain)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
