#include "pss/ostrovsky.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "pss/plaintext_access.h"
#include "pss/session.h"

namespace dpss::pss {
namespace {

const std::vector<std::string> kWords = {"red", "green", "blue", "black",
                                         "white"};

class OstrovskyTest : public ::testing::Test {
 protected:
  OstrovskyTest()
      : dict_(kWords),
        rng_(404),
        kp_(crypto::generateKeyPair(128, rng_)) {}

  EncryptedQuery makeQuery(const std::set<std::string>& kw) {
    SearchParams p;  // buffer params unused by the baseline
    return buildQuery(dict_, kw, kp_.priv, p, rng_);
  }

  Dictionary dict_;
  Rng rng_;
  crypto::PaillierKeyPair kp_;
};

TEST_F(OstrovskyTest, RecoversMatchesWithAmpleBuffer) {
  OstrovskyParams params{.bufferSlots = 128, .copies = 4};
  OstrovskySearcher searcher(dict_, makeQuery({"red"}), 2, params, rng_);
  std::vector<std::string> stream(30, "nothing");
  stream[3] = "red alert";
  stream[17] = "the red door";
  for (std::size_t i = 0; i < stream.size(); ++i) {
    searcher.processSegment(i, stream[i]);
  }
  auto out = ostrovskyReconstruct(kp_.priv, searcher.finish());
  std::sort(out.begin(), out.end());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "red alert");
  EXPECT_EQ(out[1], "the red door");
}

TEST_F(OstrovskyTest, NoMatchesEmptyResult) {
  OstrovskyParams params{.bufferSlots = 64, .copies = 3};
  OstrovskySearcher searcher(dict_, makeQuery({"white"}), 2, params, rng_);
  for (int i = 0; i < 20; ++i) {
    searcher.processSegment(i, "just red and green here");
  }
  // "white" never appears, even though other dictionary words do.
  EXPECT_TRUE(ostrovskyReconstruct(kp_.priv, searcher.finish()).empty());
}

TEST_F(OstrovskyTest, TinyBufferLosesDataSilently) {
  // The baseline's failure mode the paper contrasts against: with many
  // matches and few slots, collisions destroy payloads with no signal.
  OstrovskyParams params{.bufferSlots = 4, .copies = 2};
  OstrovskySearcher searcher(dict_, makeQuery({"blue"}), 2, params, rng_);
  for (int i = 0; i < 16; ++i) {
    searcher.processSegment(
        static_cast<std::uint64_t>(i),
        "blue item " + std::to_string(i));
  }
  const auto out = ostrovskyReconstruct(kp_.priv, searcher.finish());
  EXPECT_LT(out.size(), 16u);  // strictly lossy here
}

TEST_F(OstrovskyTest, CollisionGarbageNeverSurfaces) {
  // Whatever is lost must be lost cleanly: every returned payload is one
  // of the true matching segments, never a blend.
  OstrovskyParams params{.bufferSlots = 8, .copies = 2};
  OstrovskySearcher searcher(dict_, makeQuery({"green"}), 2, params, rng_);
  std::set<std::string> truth;
  for (int i = 0; i < 12; ++i) {
    const std::string payload = "green thing " + std::to_string(i);
    truth.insert(payload);
    searcher.processSegment(static_cast<std::uint64_t>(i), payload);
  }
  for (const auto& p : ostrovskyReconstruct(kp_.priv, searcher.finish())) {
    EXPECT_TRUE(truth.count(test::plaintext(p)))
        << "non-genuine payload surfaced: " << p;
  }
}

TEST_F(OstrovskyTest, MultiBlockPayloads) {
  OstrovskyParams params{.bufferSlots = 64, .copies = 4};
  OstrovskySearcher searcher(dict_, makeQuery({"black"}), 4, params, rng_);
  std::vector<std::string> stream(12, "short");
  stream[6] = "black swan " + std::string(30, 'q');
  for (std::size_t i = 0; i < stream.size(); ++i) {
    searcher.processSegment(i, stream[i]);
  }
  const auto out = ostrovskyReconstruct(kp_.priv, searcher.finish());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], stream[6]);
}

TEST_F(OstrovskyTest, FinishResetsState) {
  OstrovskyParams params{.bufferSlots = 64, .copies = 3};
  OstrovskySearcher searcher(dict_, makeQuery({"red"}), 2, params, rng_);
  searcher.processSegment(0, "red one");
  (void)searcher.finish();
  searcher.processSegment(0, "plain");
  const auto out = ostrovskyReconstruct(kp_.priv, searcher.finish());
  EXPECT_TRUE(out.empty());  // batch 1's match must not leak into batch 2
}

}  // namespace
}  // namespace dpss::pss
