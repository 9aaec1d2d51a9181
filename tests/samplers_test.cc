#include <gtest/gtest.h>

#include <set>

#include "core/session.h"
#include "estimation/empirical.h"
#include "estimation/metrics.h"
#include "mcmc/distribution.h"
#include "test_util.h"

namespace wnw {
namespace {

using testing::OpenSession;

TEST(BurnInSamplerTest, DrawsValidNodes) {
  const Graph g = testing::MakeTestBA(60, 3);
  auto sampler = OpenSession(g, MakeBurnInConfig("srw"), 1);
  ASSERT_NE(sampler, nullptr);
  for (int i = 0; i < 20; ++i) {
    const auto s = sampler->Draw();
    ASSERT_TRUE(s.ok());
    EXPECT_LT(s.value(), g.num_nodes());
  }
  const SessionStats stats = sampler->Stats();
  EXPECT_GT(stats.last_burn_in, 0);
  EXPECT_GT(stats.average_burn_in, 0.0);
  EXPECT_EQ(stats.sampler, "SRW+Geweke");
}

TEST(BurnInSamplerTest, RespectsMaxSteps) {
  // An unreachable threshold (the z-score is never negative; a tiny
  // positive one is met whenever the two window means tie exactly): the
  // walk gives up at the cap.
  const Graph g = testing::MakeTestBA(60, 3);
  BurnInOptions opts;
  opts.geweke.threshold = -1.0;
  opts.max_steps = 500;
  auto sampler = OpenSession(g, MakeBurnInConfig("srw", opts), 2);
  ASSERT_NE(sampler, nullptr);
  ASSERT_TRUE(sampler->Draw().ok());
  EXPECT_EQ(sampler->Stats().last_burn_in, 500);
}

TEST(BurnInSamplerTest, ConvergedChainsStopEarly) {
  const Graph g = MakeComplete(20).value();  // mixes in one step
  BurnInOptions opts;
  opts.min_steps = 60;
  opts.max_steps = 100000;
  auto sampler = OpenSession(g, MakeBurnInConfig("srw", opts), 3);
  ASSERT_NE(sampler, nullptr);
  ASSERT_TRUE(sampler->Draw().ok());
  EXPECT_LT(sampler->Stats().last_burn_in, 1000);
}

TEST(BurnInSamplerTest, SamplesApproachStationary) {
  const Graph g = testing::MakeTestBA(30, 3);
  SimpleRandomWalk srw;
  const auto pi = StationaryDistribution(g, srw);
  BurnInOptions opts;
  opts.min_steps = 100;
  auto sampler = OpenSession(g, MakeBurnInConfig("srw", opts), 4);
  ASSERT_NE(sampler, nullptr);
  EmpiricalDistribution dist(g.num_nodes());
  for (int i = 0; i < 4000; ++i) {
    dist.Add(sampler->Draw().value());
  }
  EXPECT_LT(TotalVariationDistance(dist.Pmf(), pi), 0.08);
}

TEST(BurnInSamplerTest, TargetWeightMatchesDesign) {
  const Graph g = testing::MakeHouseGraph();
  auto s1 = OpenSession(g, MakeBurnInConfig("srw"), 5);
  auto s2 = OpenSession(g, MakeBurnInConfig("mhrw"), 6);
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(s2, nullptr);
  EXPECT_DOUBLE_EQ(s1->TargetWeight(0), 3.0);  // degree
  EXPECT_DOUBLE_EQ(s2->TargetWeight(0), 1.0);  // uniform
}

TEST(OneLongRunTest, BurnsInOnceThenStreams) {
  const Graph g = testing::MakeTestBA(60, 3);
  auto sampler = OpenSession(g, MakeLongRunConfig("srw"), 7);
  ASSERT_NE(sampler, nullptr);
  EXPECT_FALSE(sampler->Stats().burned_in);
  ASSERT_TRUE(sampler->Draw().ok());
  EXPECT_TRUE(sampler->Stats().burned_in);
  const uint64_t cost_after_burn_in = sampler->Stats().query_cost;
  // Subsequent draws are single steps: cheap.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(sampler->Draw().ok());
  const uint64_t marginal = sampler->Stats().query_cost - cost_after_burn_in;
  EXPECT_LE(marginal, 110u);
}

TEST(OneLongRunTest, ThinningTakesMultipleSteps) {
  const Graph g = MakeCycle(101).value();
  LongRunOptions opts;
  opts.thinning = 5;
  auto sampler = OpenSession(g, MakeLongRunConfig("srw", opts), 8);
  ASSERT_NE(sampler, nullptr);
  ASSERT_TRUE(sampler->Draw().ok());
  // On a cycle, 5 SRW steps move to a node of matching parity: distance
  // from the previous sample is odd. Just verify draws keep succeeding and
  // nodes change over time.
  std::set<NodeId> seen;
  for (int i = 0; i < 50; ++i) seen.insert(sampler->Draw().value());
  EXPECT_GT(seen.size(), 5u);
}

TEST(OneLongRunTest, DependentSamplesHaveLowerEffectiveSize) {
  // §6.1: consecutive long-run samples are autocorrelated, so the effective
  // sample size of the degree sequence is well below the nominal count.
  const Graph g = testing::MakeTestBA(200, 3);
  auto sampler = OpenSession(g, MakeLongRunConfig("srw"), 9);
  ASSERT_NE(sampler, nullptr);
  std::vector<double> degree_chain;
  constexpr int kLen = 3000;
  for (int i = 0; i < kLen; ++i) {
    degree_chain.push_back(
        static_cast<double>(g.Degree(sampler->Draw().value())));
  }
  const double ess = EffectiveSampleSize(degree_chain);
  EXPECT_LT(ess, 0.9 * kLen);
  EXPECT_GT(ess, 1.0);
}

}  // namespace
}  // namespace wnw
