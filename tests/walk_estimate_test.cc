// End-to-end distributional correctness of the WALK-ESTIMATE sampler: its
// output must follow the input walk's stationary distribution without any
// burn-in (the paper's headline property), for both SRW and MHRW inputs.
#include <gtest/gtest.h>

#include <memory>

#include "core/session.h"
#include "estimation/empirical.h"
#include "estimation/metrics.h"
#include "mcmc/distribution.h"
#include "mcmc/transition.h"
#include "test_util.h"

namespace wnw {
namespace {

using testing::OpenSession;

WalkEstimateOptions SmallGraphOptions() {
  WalkEstimateOptions opts;
  opts.diameter_bound = 4;  // small test graphs
  opts.estimate.crawl_hops = 2;
  opts.estimate.base_reps = 6;
  return opts;
}

std::vector<double> SampleDistribution(const Graph& g, const char* design,
                                       const WalkEstimateOptions& opts,
                                       int num_samples, uint64_t seed,
                                       NodeId start = 0) {
  auto sampler =
      OpenSession(g, MakeWalkEstimateConfig(design, opts), seed, start);
  EmpiricalDistribution dist(g.num_nodes());
  if (sampler == nullptr) return dist.Pmf();
  for (int i = 0; i < num_samples; ++i) {
    const auto s = sampler->Draw();
    if (!s.ok()) break;
    dist.Add(s.value());
  }
  return dist.Pmf();
}

TEST(WalkEstimateTest, MatchesSrwStationaryDistribution) {
  const Graph g = testing::MakeTestBA(30, 3);
  SimpleRandomWalk srw;
  const auto pi = StationaryDistribution(g, srw);
  const auto pmf =
      SampleDistribution(g, "srw", SmallGraphOptions(), 40000, 123);
  EXPECT_LT(TotalVariationDistance(pmf, pi), 0.06);
}

TEST(WalkEstimateTest, MatchesMhrwUniformDistribution) {
  const Graph g = testing::MakeTestBA(30, 3);
  MetropolisHastingsWalk mhrw;
  const auto pi = StationaryDistribution(g, mhrw);  // uniform
  const auto pmf =
      SampleDistribution(g, "mhrw", SmallGraphOptions(), 40000, 321);
  EXPECT_LT(TotalVariationDistance(pmf, pi), 0.06);
}

TEST(WalkEstimateTest, LessBiasedThanShortWalkAlone) {
  // The point of the ESTIMATE + rejection stage: the raw t-step walk's
  // output distribution is farther from the target than WE's corrected one.
  const Graph g = testing::MakeTestBA(30, 3);
  SimpleRandomWalk srw;
  const auto pi = StationaryDistribution(g, srw);
  const auto tm = TransitionMatrix::Build(g, srw);
  WalkEstimateOptions opts = SmallGraphOptions();
  const auto raw_pt =
      ExactStepDistribution(tm, 0, opts.EffectiveWalkLength());
  const auto we_pmf = SampleDistribution(g, "srw", opts, 40000, 55);
  EXPECT_LT(TotalVariationDistance(we_pmf, pi),
            TotalVariationDistance(raw_pt, pi));
}

TEST(WalkEstimateTest, AllVariantsProduceSamples) {
  const Graph g = testing::MakeTestBA(40, 3);
  for (auto variant :
       {WalkEstimateVariant::kFull, WalkEstimateVariant::kNone,
        WalkEstimateVariant::kCrawlOnly, WalkEstimateVariant::kWeightedOnly}) {
    auto sampler = OpenSession(
        g, MakeWalkEstimateConfig("srw", SmallGraphOptions(), variant), 77);
    ASSERT_NE(sampler, nullptr);
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(sampler->Draw().ok()) << VariantName(variant);
    }
    const SessionStats stats = sampler->Stats();
    EXPECT_EQ(stats.samples_accepted, 50u) << VariantName(variant);
    EXPECT_GE(stats.candidates_tried, 50u);
  }
}

TEST(WalkEstimateTest, VariantNamesMatchPaper) {
  EXPECT_EQ(VariantName(WalkEstimateVariant::kFull), "WE");
  EXPECT_EQ(VariantName(WalkEstimateVariant::kNone), "WE-None");
  EXPECT_EQ(VariantName(WalkEstimateVariant::kCrawlOnly), "WE-Crawl");
  EXPECT_EQ(VariantName(WalkEstimateVariant::kWeightedOnly), "WE-Weighted");
}

TEST(WalkEstimateTest, WalkLengthDefaultsTo2DPlus1) {
  WalkEstimateOptions opts;
  opts.diameter_bound = 10;
  EXPECT_EQ(opts.EffectiveWalkLength(), 21);
  opts.walk_length = 15;
  EXPECT_EQ(opts.EffectiveWalkLength(), 15);
}

TEST(WalkEstimateTest, TelemetryTracksAcceptance) {
  const Graph g = testing::MakeTestBA(40, 3);
  const WalkEstimateOptions opts = SmallGraphOptions();
  auto sampler = OpenSession(g, MakeWalkEstimateConfig("srw", opts), 99);
  ASSERT_NE(sampler, nullptr);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(sampler->Draw().ok());
  const SessionStats stats = sampler->Stats();
  EXPECT_GT(stats.acceptance_rate, 0.0);
  EXPECT_LE(stats.acceptance_rate, 1.0);
  EXPECT_EQ(stats.forward_steps,
            stats.candidates_tried *
                static_cast<uint64_t>(opts.EffectiveWalkLength()));
  EXPECT_GT(stats.backward_walks, 0u);
  EXPECT_GT(stats.query_cost, 0u);
}

TEST(WalkEstimateTest, CostGrowsSublinearlyThanksToCaching) {
  // Later draws reuse cached neighborhoods: the marginal unique-node cost
  // of the second 50 samples is below that of the first 50.
  const Graph g = testing::MakeTestBA(200, 3);
  auto sampler =
      OpenSession(g, MakeWalkEstimateConfig("srw", SmallGraphOptions()), 101);
  ASSERT_NE(sampler, nullptr);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(sampler->Draw().ok());
  const uint64_t first_half = sampler->Stats().query_cost;
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(sampler->Draw().ok());
  const uint64_t second_half = sampler->Stats().query_cost - first_half;
  EXPECT_LT(second_half, first_half);
}

TEST(WalkEstimateTest, WorksFromEveryStartNode) {
  const Graph g = testing::MakeTestBA(25, 2);
  for (NodeId start = 0; start < g.num_nodes(); start += 6) {
    auto sampler = OpenSession(
        g, MakeWalkEstimateConfig("mhrw", SmallGraphOptions()), start + 1,
        start);
    ASSERT_NE(sampler, nullptr);
    EXPECT_TRUE(sampler->Draw().ok()) << "start=" << start;
  }
}

TEST(WalkEstimateTest, HonorsManualScaleRejection) {
  const Graph g = testing::MakeTestBA(30, 3);
  SimpleRandomWalk srw;
  WalkEstimateOptions opts = SmallGraphOptions();
  opts.rejection.mode = ScaleMode::kManual;
  // Exact scale: min over nodes of p_t(v)/deg(v).
  const auto tm = TransitionMatrix::Build(g, srw);
  const auto pt = ExactStepDistribution(tm, 0, opts.EffectiveWalkLength());
  double scale = std::numeric_limits<double>::infinity();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (pt[v] > 0) scale = std::min(scale, pt[v] / g.Degree(v));
  }
  opts.rejection.manual_scale = scale;
  // Spend enough backward walks that estimates are reliably positive:
  // zero estimates bypass rejection (accept outright) by design.
  opts.estimate.base_reps = 24;
  auto sampler = OpenSession(g, MakeWalkEstimateConfig("srw", opts), 13);
  ASSERT_NE(sampler, nullptr);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(sampler->Draw().ok());
  // The exact min-ratio scale is the most conservative choice: a meaningful
  // share of candidates must be rejected.
  const SessionStats stats = sampler->Stats();
  EXPECT_GT(stats.candidates_tried, stats.samples_accepted);
  EXPECT_LT(stats.acceptance_rate, 0.95);
}

}  // namespace
}  // namespace wnw
