// Golden pin of the broker fold (§III-C, Step 2): the SHA-256 of the
// serialized SearchResultEnvelope for a fixed key, query and broker seed
// over a 40-document, 3-block stream. Any change to the bytes the fold
// produces — slot selection, blockwise E(c)^f, Bloom update, buffer
// initialization, envelope layout — fails here byte-for-byte, which the
// end-to-end search tests (which only check what the client recovers)
// cannot see. Regenerate only for an intentional format change, and say
// why in the commit.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "pss/dictionary.h"
#include "pss/query.h"
#include "pss/searcher.h"
#include "pss/session.h"

namespace dpss::pss {
namespace {

constexpr char kEnvelopeSha256[] =
    "10f4e00e394937a5dc243cf8032f7cecab4db554e1fb508ae8cdf11a07187950";
// Work the batch records: buffer accumulations (the Fig. 7 cost driver)
// and E(c)^f modexps (one per block per segment).
constexpr std::uint64_t kFolds = 1016;
constexpr std::uint64_t kHomMuls = 120;

/// FIPS 180-4 SHA-256 of `data`, lowercase hex.
std::string sha256Hex(const std::string& data) {
  static constexpr std::array<std::uint32_t, 64> k = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
  std::array<std::uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                    0x1f83d9ab, 0x5be0cd19};
  const auto rotr = [](std::uint32_t x, int n) {
    return (x >> n) | (x << (32 - n));
  };
  std::string msg = data;
  msg.push_back(static_cast<char>(0x80));
  while (msg.size() % 64 != 56) msg.push_back('\0');
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    msg.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
  for (std::size_t off = 0; off < msg.size(); off += 64) {
    std::array<std::uint32_t, 64> w{};
    for (int i = 0; i < 16; ++i) {
      for (int b = 0; b < 4; ++b) {
        w[i] = (w[i] << 8) |
               static_cast<unsigned char>(msg[off + 4 * i + b]);
      }
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::array<std::uint32_t, 8> v = h;
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(v[4], 6) ^ rotr(v[4], 11) ^ rotr(v[4], 25);
      const std::uint32_t ch = (v[4] & v[5]) ^ (~v[4] & v[6]);
      const std::uint32_t t1 = v[7] + s1 + ch + k[i] + w[i];
      const std::uint32_t s0 = rotr(v[0], 2) ^ rotr(v[0], 13) ^ rotr(v[0], 22);
      const std::uint32_t maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
      for (int j = 7; j > 0; --j) v[j] = v[j - 1];
      v[4] += t1;
      v[0] = t1 + s0 + maj;
    }
    for (int j = 0; j < 8; ++j) h[j] += v[j];
  }
  std::string hex;
  char buf[9];
  for (const std::uint32_t word : h) {
    std::snprintf(buf, sizeof(buf), "%08x", word);
    hex += buf;
  }
  return hex;
}

const std::vector<std::string> kDict = {"alpha", "breach", "cipher", "delta",
                                        "echo",  "fox",    "golf",   "hotel"};

std::vector<std::string> makeStream() {
  std::vector<std::string> stream;
  for (int i = 0; i < 40; ++i) {
    stream.push_back(i % 5 == 2 ? "breach detected in cipher " +
                                      std::to_string(i)
                                : "routine entry " + std::to_string(i));
  }
  return stream;
}

const SearchParams kParams{
    .bufferLength = 12, .indexBufferLength = 128, .bloomHashes = 3};

/// One broker batch over the fixed stream with a pinned broker seed.
SearchResultEnvelope runBatch(const Dictionary& dict,
                              const EncryptedQuery& query) {
  Rng brokerRng(4242);
  StreamSearcher searcher(dict, query, /*blocks=*/3, brokerRng);
  const auto stream = makeStream();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    searcher.processSegment(i, stream[i]);
  }
  return searcher.finish();
}

std::string envelopeBytes(const SearchResultEnvelope& env) {
  ByteWriter w;
  env.serialize(w);
  return w.take();
}

TEST(EnvelopeGolden, Sha256KnownAnswers) {
  EXPECT_EQ(sha256Hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(EnvelopeGolden, FoldBytesMatchGolden) {
  const Dictionary dict(kDict);
  PrivateSearchClient client(dict, kParams, 128, /*seed=*/77);
  const EncryptedQuery query = client.makeQuery({"breach"});
  obs::MetricsRegistry reg;
  const SearchResultEnvelope env = [&] {
    obs::ScopedRegistry scope(reg);
    return runBatch(dict, query);
  }();
  EXPECT_EQ(sha256Hex(envelopeBytes(env)), kEnvelopeSha256);
  const obs::MetricsSnapshot counts = reg.snapshot();
  EXPECT_EQ(counts.counterValue("paillier.fold.count"), kFolds);
  EXPECT_EQ(counts.counterValue("paillier.homomorphic.mul.count"), kHomMuls);

  // The pinned bytes must also still mean the right thing: every
  // i % 5 == 2 document, and only those, opens out of the envelope.
  const auto recovered = client.open(env);
  const auto stream = makeStream();
  ASSERT_EQ(recovered.size(), 8u);
  for (const auto& seg : recovered) {
    EXPECT_EQ(seg.index % 5, 2u);
    EXPECT_EQ(seg.payload, stream[seg.index]);
  }
}

TEST(EnvelopeGolden, ConcurrentSearchersMatchGolden) {
  // Overlapping kPssSearch RPCs on one historical run independent
  // searchers over one query concurrently; each must still produce the
  // golden envelope.
  const Dictionary dict(kDict);
  PrivateSearchClient client(dict, kParams, 128, /*seed=*/77);
  const EncryptedQuery query = client.makeQuery({"breach"});
  std::vector<std::string> got(4);
  {
    std::vector<std::thread> drivers;
    for (std::size_t t = 0; t < got.size(); ++t) {
      drivers.emplace_back(
          [&, t] { got[t] = sha256Hex(envelopeBytes(runBatch(dict, query))); });
    }
    for (auto& d : drivers) d.join();
  }
  for (std::size_t t = 0; t < got.size(); ++t) {
    EXPECT_EQ(got[t], kEnvelopeSha256) << "driver " << t;
  }
}

}  // namespace
}  // namespace dpss::pss
