// Parameterized behaviour sweeps of the two private-search schemes —
// the quantitative backdrop of the paper's buffer-design choice.
#include <gtest/gtest.h>

#include <tuple>

#include "pss/ostrovsky.h"
#include "pss/plaintext_access.h"
#include "pss/session.h"

namespace dpss::pss {
namespace {

struct SweepCase {
  std::size_t bufferSlots;
  std::size_t copies;
  std::size_t matches;
};

class OstrovskyLossSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(OstrovskyLossSweep, RecoveryWithinExpectedBounds) {
  const auto [slots, copies, matches] = GetParam();
  Dictionary dict({"hit", "miss"});
  SearchParams params;
  Rng rng(slots * 131 + copies * 17 + matches);
  crypto::PaillierKeyPair kp = crypto::generateKeyPair(128, rng);
  const auto query = buildQuery(dict, {"hit"}, kp.priv, params, rng);

  OstrovskyParams osParams{.bufferSlots = slots, .copies = copies};
  OstrovskySearcher searcher(dict, query, 2, osParams, rng);
  for (std::size_t i = 0; i < 64; ++i) {
    searcher.processSegment(
        i, i < matches ? "hit number " + std::to_string(i) : "miss entry");
  }
  const auto out = ostrovskyReconstruct(kp.priv, searcher.finish());

  // Never more than the truth, never forged.
  EXPECT_LE(out.size(), matches);
  for (const auto& payload : out) {
    EXPECT_EQ(test::plaintext(payload).rfind("hit number ", 0), 0u);
  }
  // With slots >> matches·copies, losses should be rare: expect at least
  // half recovered even in the tightest generous configuration.
  if (slots >= matches * copies * 4) {
    EXPECT_GE(out.size(), matches / 2 + (matches % 2));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OstrovskyLossSweep,
    ::testing::Values(SweepCase{256, 3, 1}, SweepCase{256, 3, 4},
                      SweepCase{256, 3, 8}, SweepCase{64, 2, 8},
                      SweepCase{32, 2, 8}, SweepCase{16, 2, 8},
                      SweepCase{128, 4, 4}, SweepCase{128, 1, 4}));

// (seed, packFactor): the Bloom false-positive property must hold for
// packed batches too, where candidates are document *groups*.
class BloomFalsePositiveSweep
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(BloomFalsePositiveSweep, FalsePositivesResolveToZeroCValues) {
  // Bloom false positives are expected; the c-value solve must always
  // discard them (c = 0), whatever the l_I / k sizing.
  const auto [seed, packFactor] = GetParam();
  Dictionary dict({"hit", "miss"});
  // Deliberately undersized Bloom buffer: false positives guaranteed.
  SearchParams params;
  params.bufferLength = 16;
  params.indexBufferLength = 32;
  params.bloomHashes = 2;
  PrivateSearchClient client(dict, params, 128, 5000 + seed);
  Rng rng(6000 + seed);

  // Enough documents that even the packed stream has > l_F groups.
  std::vector<std::string> docs(40 * packFactor, "miss entry");
  docs[5] = "hit one";
  docs[29] = "hit two";
  for (int attempt = 0; attempt < 8; ++attempt) {
    try {
      const auto results =
          runPrivateSearchPacked(client, {"hit"}, docs, packFactor, 0, rng);
      ASSERT_EQ(results.size(), 2u);
      EXPECT_EQ(results[0].index, 5u);
      EXPECT_EQ(results[1].index, 29u);
      return;
    } catch (const CryptoError&) {
      continue;  // singular; retry (handled by the loop's fresh seeds)
    } catch (const BufferOverflow&) {
      // So many false positives that candidates exceed l_F: detectable,
      // acceptable for this adversarially undersized l_I.
      return;
    }
  }
  FAIL() << "no solvable batch in 8 attempts";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BloomFalsePositiveSweep,
                         ::testing::Combine(::testing::Range(0, 8),
                                            ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace dpss::pss
