// (t, n)-threshold searching — the extension of the paper's related work
// (Yi & Xing): return only documents matching >= t distinct keywords.
#include <gtest/gtest.h>

#include "common/error.h"
#include "pss/session.h"

namespace dpss::pss {
namespace {

class ThresholdTest : public ::testing::Test {
 protected:
  ThresholdTest()
      : dict_({"alpha", "beta", "gamma", "delta", "plain"}),
        params_{.bufferLength = 16, .indexBufferLength = 256,
                .bloomHashes = 5},
        client_(dict_, params_, 128, 808),
        rng_(909) {}

  std::vector<RecoveredSegment> search(const std::set<std::string>& keywords,
                                       std::uint64_t threshold,
                                       const std::vector<std::string>& docs) {
    return runThresholdSearch(client_, keywords, threshold, docs, 0, rng_);
  }

  Dictionary dict_;
  SearchParams params_;
  PrivateSearchClient client_;
  Rng rng_;
};

std::vector<std::string> thresholdStream() {
  std::vector<std::string> docs(60, "plain text only");
  docs[2] = "alpha alone here";                       // c = 1
  docs[7] = "alpha and beta together";                // c = 2
  docs[11] = "alpha beta gamma triple";               // c = 3
  docs[15] = "alpha beta gamma delta full house";     // c = 4 (delta not in K)
  return docs;
}

TEST_F(ThresholdTest, ThresholdOneEqualsDisjunction) {
  const auto all = search({"alpha", "beta", "gamma"}, 1, thresholdStream());
  EXPECT_EQ(all.size(), 4u);
}

TEST_F(ThresholdTest, ThresholdTwoDropsSingleMatches) {
  const auto out = search({"alpha", "beta", "gamma"}, 2, thresholdStream());
  ASSERT_EQ(out.size(), 3u);
  for (const auto& r : out) EXPECT_GE(r.cValue, 2u);
  EXPECT_EQ(out[0].index, 7u);
}

TEST_F(ThresholdTest, ThresholdEqualsKeywordCount) {
  const auto out = search({"alpha", "beta", "gamma"}, 3, thresholdStream());
  ASSERT_EQ(out.size(), 2u);  // docs 11 and 15 contain all three
  EXPECT_EQ(out[0].index, 11u);
  EXPECT_EQ(out[1].index, 15u);
}

TEST_F(ThresholdTest, ImpossibleThresholdYieldsNothing) {
  const auto out = search({"alpha", "beta"}, 3, thresholdStream());
  EXPECT_TRUE(out.empty());  // only two keywords queried
}

TEST_F(ThresholdTest, ZeroThresholdRejected) {
  EXPECT_THROW(search({"alpha"}, 0, thresholdStream()), InternalError);
}

TEST_F(ThresholdTest, PayloadsIntactAfterFiltering) {
  const auto stream = thresholdStream();
  const auto out = search({"alpha", "beta", "gamma"}, 2, stream);
  for (const auto& r : out) EXPECT_EQ(r.payload, stream[r.index]);
}

}  // namespace
}  // namespace dpss::pss
