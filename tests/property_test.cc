// Cross-module property sweeps: invariants that must hold for EVERY
// (transition design x graph family) combination, exercised via
// parameterized suites rather than hand-picked cases.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "access/access_interface.h"
#include "core/session.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "mcmc/distribution.h"
#include "mcmc/spectral.h"
#include "mcmc/transition.h"
#include "test_util.h"

namespace wnw {
namespace {

Graph MakeFamilyGraph(const std::string& family) {
  if (family == "house") return testing::MakeHouseGraph();
  if (family == "cycle") return MakeCycle(15).value();
  if (family == "hypercube") return MakeHypercube(4).value();
  if (family == "tree") return MakeBalancedBinaryTree(3).value();
  if (family == "barbell") return MakeBarbell(11).value();
  if (family == "ba") return testing::MakeTestBA(40, 3);
  if (family == "complete") return MakeComplete(8).value();
  ADD_FAILURE() << "unknown family " << family;
  return testing::MakeHouseGraph();
}

std::unique_ptr<TransitionDesign> MakeFamilyDesign(const std::string& spec,
                                                   const Graph& g) {
  if (spec == "maxdeg") {
    return std::make_unique<MaxDegreeWalk>(g.max_degree() + 1);
  }
  return MakeTransitionDesign(spec);
}

using Combo = std::tuple<std::string, std::string>;  // (design, family)

class DesignGraphProperty : public ::testing::TestWithParam<Combo> {};

TEST_P(DesignGraphProperty, RowsAreDistributions) {
  const auto& [spec, family] = GetParam();
  const Graph g = MakeFamilyGraph(family);
  auto design = MakeFamilyDesign(spec, g);
  const auto tm = TransitionMatrix::Build(g, *design);
  EXPECT_LT(tm.MaxRowSumError(), 1e-12);
}

TEST_P(DesignGraphProperty, StationaryIsFixedPoint) {
  const auto& [spec, family] = GetParam();
  const Graph g = MakeFamilyGraph(family);
  auto design = MakeFamilyDesign(spec, g);
  const auto tm = TransitionMatrix::Build(g, *design);
  const auto pi = StationaryDistribution(g, *design);
  const auto next = tm.Multiply(pi);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(next[u], pi[u], 1e-12) << spec << "/" << family << " " << u;
  }
}

TEST_P(DesignGraphProperty, DetailedBalanceHolds) {
  // All shipped designs are reversible: pi(u) T(u,v) == pi(v) T(v,u).
  const auto& [spec, family] = GetParam();
  const Graph g = MakeFamilyGraph(family);
  auto design = MakeFamilyDesign(spec, g);
  AccessInterface access(&g);
  const auto pi = StationaryDistribution(g, *design);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      const double forward = pi[u] * design->TransitionProb(access, u, v);
      const double backward = pi[v] * design->TransitionProb(access, v, u);
      EXPECT_NEAR(forward, backward, 1e-13)
          << spec << "/" << family << " edge " << u << "-" << v;
    }
  }
}

TEST_P(DesignGraphProperty, StepStaysOnEdgesOrSelf) {
  const auto& [spec, family] = GetParam();
  const Graph g = MakeFamilyGraph(family);
  auto design = MakeFamilyDesign(spec, g);
  AccessInterface access(&g);
  Rng rng(11);
  NodeId cur = 0;
  for (int i = 0; i < 500; ++i) {
    const NodeId next = design->Step(access, cur, rng);
    EXPECT_TRUE(next == cur || g.HasEdge(cur, next))
        << spec << "/" << family;
    cur = next;
  }
}

TEST_P(DesignGraphProperty, TransitionEstimateIsUnbiased) {
  // E[TransitionProbEstimate(u, v)] == TransitionProb(u, v), including the
  // MHRW self-loop shortcut.
  const auto& [spec, family] = GetParam();
  const Graph g = MakeFamilyGraph(family);
  auto design = MakeFamilyDesign(spec, g);
  AccessInterface access(&g);
  Rng rng(13);
  const NodeId u = g.num_nodes() / 2;
  for (NodeId v : {u, g.Neighbors(u).empty() ? u : g.Neighbors(u)[0]}) {
    const double exact = design->TransitionProb(access, u, v);
    double sum = 0;
    constexpr int kReps = 20000;
    for (int i = 0; i < kReps; ++i) {
      sum += design->TransitionProbEstimate(access, u, v, rng);
    }
    EXPECT_NEAR(sum / kReps, exact, 0.02) << spec << "/" << family;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DesignGraphProperty,
    ::testing::Combine(::testing::Values("srw", "mhrw", "lazy", "maxdeg"),
                       ::testing::Values("house", "cycle", "hypercube",
                                         "tree", "barbell", "ba",
                                         "complete")),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

class GeneratorProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(GeneratorProperty, HandshakeLemma) {
  const Graph g = MakeFamilyGraph(GetParam());
  uint64_t deg_sum = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) deg_sum += g.Degree(u);
  EXPECT_EQ(deg_sum, 2 * g.num_edges());
}

TEST_P(GeneratorProperty, NeighborListsSortedAndSymmetric) {
  const Graph g = MakeFamilyGraph(GetParam());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.Neighbors(u);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    for (NodeId v : nbrs) EXPECT_TRUE(g.HasEdge(v, u));
  }
}

TEST_P(GeneratorProperty, SpectralGapWithinBounds) {
  const Graph g = MakeFamilyGraph(GetParam());
  if (!IsConnected(g)) GTEST_SKIP();
  MetropolisHastingsWalk mhrw;
  const auto r = ComputeSpectralGap(g, mhrw).value();
  EXPECT_GE(r.second_eigenvalue, -1.0 - 1e-9);
  EXPECT_LE(r.second_eigenvalue, 1.0 + 1e-9);
  EXPECT_GE(r.spectral_gap, -1e-9);
}

INSTANTIATE_TEST_SUITE_P(Families, GeneratorProperty,
                         ::testing::Values("house", "cycle", "hypercube",
                                           "tree", "barbell", "ba",
                                           "complete"));

class WalkEstimateProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(WalkEstimateProperty, TelemetryConsistentAcrossVariants) {
  const Graph g = testing::MakeTestBA(50, 3);
  for (auto variant :
       {WalkEstimateVariant::kFull, WalkEstimateVariant::kNone,
        WalkEstimateVariant::kCrawlOnly, WalkEstimateVariant::kWeightedOnly}) {
    WalkEstimateOptions opts;
    opts.diameter_bound = 4;
    auto sampler = testing::OpenSession(
        g, MakeWalkEstimateConfig(GetParam(), opts, variant), 17);
    ASSERT_NE(sampler, nullptr);
    for (int i = 0; i < 25; ++i) ASSERT_TRUE(sampler->Draw().ok());
    const SessionStats stats = sampler->Stats();
    EXPECT_EQ(stats.samples_accepted, 25u);
    EXPECT_GE(stats.candidates_tried, stats.samples_accepted);
    EXPECT_EQ(stats.forward_steps,
              stats.candidates_tried *
                  static_cast<uint64_t>(opts.EffectiveWalkLength()));
    EXPECT_GT(stats.query_cost, 0u);
    EXPECT_GE(stats.total_queries, stats.query_cost);
  }
}

INSTANTIATE_TEST_SUITE_P(Designs, WalkEstimateProperty,
                         ::testing::Values("srw", "mhrw", "lazy"));

}  // namespace
}  // namespace wnw
