#include <gtest/gtest.h>

#include "core/session.h"
#include "estimation/empirical.h"
#include "estimation/metrics.h"
#include "mcmc/distribution.h"
#include "mcmc/transition.h"
#include "test_util.h"

namespace wnw {
namespace {

using testing::OpenSession;

WalkEstimatePathOptions SmallOptions() {
  WalkEstimatePathOptions opts;
  opts.base.diameter_bound = 4;
  opts.base.estimate.crawl_hops = 2;
  opts.base.estimate.base_reps = 6;
  return opts;
}

TEST(PathSamplerTest, ProducesSamples) {
  const Graph g = testing::MakeTestBA(40, 3);
  auto sampler =
      OpenSession(g, MakeWalkEstimatePathConfig("srw", SmallOptions()), 3);
  ASSERT_NE(sampler, nullptr);
  for (int i = 0; i < 100; ++i) {
    const auto s = sampler->Draw();
    ASSERT_TRUE(s.ok());
    EXPECT_LT(s.value(), g.num_nodes());
  }
  const SessionStats stats = sampler->Stats();
  EXPECT_GT(stats.walks_run, 0u);
  EXPECT_EQ(stats.samples_accepted, 100u);
}

TEST(PathSamplerTest, AmortizesWalksAcrossSamples) {
  // Multiple candidates per walk: fewer walks per accepted sample than the
  // plain sampler, which spends one full walk per candidate.
  const Graph g = testing::MakeTestBA(60, 3);
  constexpr int kSamples = 200;

  auto path =
      OpenSession(g, MakeWalkEstimatePathConfig("srw", SmallOptions()), 5);
  ASSERT_NE(path, nullptr);
  for (int i = 0; i < kSamples; ++i) ASSERT_TRUE(path->Draw().ok());

  auto plain =
      OpenSession(g, MakeWalkEstimateConfig("srw", SmallOptions().base), 5);
  ASSERT_NE(plain, nullptr);
  for (int i = 0; i < kSamples; ++i) ASSERT_TRUE(plain->Draw().ok());

  // Plain WE walks once per candidate; the path sampler re-uses each walk
  // for several candidates, so it needs strictly fewer walks.
  const SessionStats path_stats = path->Stats();
  const SessionStats plain_stats = plain->Stats();
  EXPECT_LT(path_stats.walks_run, plain_stats.candidates_tried);
  EXPECT_GT(path_stats.samples_per_walk,
            static_cast<double>(plain_stats.samples_accepted) /
                static_cast<double>(plain_stats.candidates_tried));
}

TEST(PathSamplerTest, MatchesTargetDistribution) {
  const Graph g = testing::MakeTestBA(30, 3);
  SimpleRandomWalk srw;
  const auto pi = StationaryDistribution(g, srw);
  auto sampler =
      OpenSession(g, MakeWalkEstimatePathConfig("srw", SmallOptions()), 7);
  ASSERT_NE(sampler, nullptr);
  EmpiricalDistribution dist(g.num_nodes());
  for (int i = 0; i < 40000; ++i) {
    const auto s = sampler->Draw();
    ASSERT_TRUE(s.ok());
    dist.Add(s.value());
  }
  EXPECT_LT(TotalVariationDistance(dist.Pmf(), pi), 0.08);
}

TEST(PathSamplerTest, UniformTargetWithMhrw) {
  const Graph g = testing::MakeTestBA(30, 3);
  MetropolisHastingsWalk mhrw;
  const auto pi = StationaryDistribution(g, mhrw);
  auto sampler =
      OpenSession(g, MakeWalkEstimatePathConfig("mhrw", SmallOptions()), 9);
  ASSERT_NE(sampler, nullptr);
  EmpiricalDistribution dist(g.num_nodes());
  for (int i = 0; i < 40000; ++i) {
    dist.Add(sampler->Draw().value());
  }
  EXPECT_LT(TotalVariationDistance(dist.Pmf(), pi), 0.08);
}

TEST(PathSamplerTest, StrideReducesSamplesPerWalk) {
  const Graph g = testing::MakeTestBA(60, 3);
  auto run = [&](int stride, uint64_t seed) {
    auto opts = SmallOptions();
    opts.stride = stride;
    auto sampler =
        OpenSession(g, MakeWalkEstimatePathConfig("srw", opts), seed);
    if (sampler == nullptr) return 0.0;
    for (int i = 0; i < 150; ++i) sampler->Draw().value();
    return sampler->Stats().samples_per_walk;
  };
  EXPECT_GT(run(1, 11), run(4, 11));
}

TEST(PathSamplerTest, CheaperPerSampleThanPlainWE) {
  const Graph g = testing::MakeTestBA(400, 3);
  constexpr int kSamples = 150;

  WalkEstimateOptions plain_opts = SmallOptions().base;
  auto plain = OpenSession(g, MakeWalkEstimateConfig("srw", plain_opts), 13);
  ASSERT_NE(plain, nullptr);
  for (int i = 0; i < kSamples; ++i) ASSERT_TRUE(plain->Draw().ok());

  auto path =
      OpenSession(g, MakeWalkEstimatePathConfig("srw", SmallOptions()), 13);
  ASSERT_NE(path, nullptr);
  for (int i = 0; i < kSamples; ++i) ASSERT_TRUE(path->Draw().ok());

  EXPECT_LT(path->Stats().total_queries, plain->Stats().total_queries);
}

TEST(PathSamplerTest, MinStepDefaultsToDiameterBound) {
  WalkEstimatePathOptions opts;
  opts.base.diameter_bound = 7;
  EXPECT_EQ(opts.EffectiveMinStep(), 7);
  opts.min_candidate_step = 3;
  EXPECT_EQ(opts.EffectiveMinStep(), 3);
}

TEST(PathSamplerTest, RejectsInvalidOptions) {
  const Graph g = testing::MakeHouseGraph();
  WalkEstimatePathOptions opts;
  opts.base.diameter_bound = 4;
  opts.min_candidate_step = 100;  // beyond the walk length
  const auto session =
      SamplingSession::Open(&g, MakeWalkEstimatePathConfig("srw", opts));
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace wnw
