#include "datasets/social_datasets.h"

#include <algorithm>
#include <cmath>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "random/rng.h"
#include "util/check.h"
#include "util/string_util.h"

namespace wnw {

namespace {

uint32_t ScaledCount(double base, double scale, uint32_t minimum) {
  return std::max(minimum,
                  static_cast<uint32_t>(std::lround(base * scale)));
}

uint32_t EstimateDiameter(const Graph& g, uint64_t seed) {
  Rng rng(Mix64(seed ^ 0xd1a0u));
  return EstimateDiameterDoubleSweep(g, rng, 4).value_or(10);
}

void AddLandmarkPathColumn(SocialDataset* ds, uint64_t seed) {
  Rng rng(Mix64(seed ^ 0x1a2du));
  const uint32_t count =
      std::min<uint32_t>(16, std::max<uint32_t>(4, ds->graph.num_nodes() / 64));
  const auto landmarks = PickLandmarks(ds->graph, count, rng);
  WNW_CHECK_OK(ds->attrs.AddColumn(
      "path_len", LandmarkMeanDistances(ds->graph, landmarks)));
}

void AddClusteringColumn(SocialDataset* ds) {
  WNW_CHECK_OK(ds->attrs.AddColumn("clustering",
                                   LocalClusteringCoefficients(ds->graph)));
}

}  // namespace

SocialDataset MakeGPlusLike(double scale, uint64_t seed) {
  WNW_CHECK(scale > 0.0 && scale <= 1.0);
  Rng rng(Mix64(seed ^ 0x69711357u));
  // Paper: 16,405 nodes, average degree 560.44 -> BA attachment m ~ 280.
  const NodeId n = ScaledCount(16405, scale, 400);
  const uint32_t m =
      std::min<uint32_t>(n / 4, ScaledCount(280, scale, 8));
  SocialDataset ds;
  ds.name = StrFormat("gplus-like(n=%u,m=%u)", n, m);
  ds.graph = MakeBarabasiAlbert(n, m, rng).value();
  ds.attrs = AttributeTable(ds.graph.num_nodes());

  // Self-description word count: heavy-tailed, mildly correlated with how
  // connected the account is (prominent accounts write longer bios).
  std::vector<double> desc_len(ds.graph.num_nodes());
  for (NodeId u = 0; u < ds.graph.num_nodes(); ++u) {
    const double base = rng.NextLogNormal(3.0, 0.8);
    const double boost = 2.0 * std::log1p(ds.graph.Degree(u));
    desc_len[u] = std::floor(std::max(0.0, base + boost));
  }
  WNW_CHECK_OK(ds.attrs.AddColumn("self_desc_len", std::move(desc_len)));
  ds.diameter_estimate = EstimateDiameter(ds.graph, seed);
  return ds;
}

SocialDataset MakeYelpLike(double scale, uint64_t seed,
                           bool with_expensive_attrs) {
  WNW_CHECK(scale > 0.0 && scale <= 1.0);
  Rng rng(Mix64(seed ^ 0x9e1fu));
  // Paper: ~120K nodes, ~954K edges -> avg degree ~15.9 -> m = 8. Holme-Kim
  // keeps clustering realistic for a review-coincidence graph.
  const NodeId n = ScaledCount(120000, scale, 2000);
  const uint32_t m = 8;
  SocialDataset ds;
  ds.name = StrFormat("yelp-like(n=%u,m=%u)", n, m);
  ds.graph = MakeHolmeKim(n, m, 0.35, rng).value();
  ds.attrs = AttributeTable(ds.graph.num_nodes());

  // Star ratings: bell-shaped around 3.7, clipped to Yelp's 1..5 range.
  std::vector<double> stars(ds.graph.num_nodes());
  for (double& s : stars) {
    s = std::clamp(rng.NextGaussian(3.7, 0.9), 1.0, 5.0);
  }
  WNW_CHECK_OK(ds.attrs.AddColumn("stars", std::move(stars)));
  AddLandmarkPathColumn(&ds, seed);
  if (with_expensive_attrs) AddClusteringColumn(&ds);
  ds.diameter_estimate = EstimateDiameter(ds.graph, seed);
  return ds;
}

SocialDataset MakeTwitterLike(double scale, uint64_t seed,
                              bool with_expensive_attrs) {
  WNW_CHECK(scale > 0.0 && scale <= 1.0);
  Rng rng(Mix64(seed ^ 0x791773u));
  const NodeId n = ScaledCount(81306, scale, 2000);
  const uint32_t m_out = 21;
  SocialDataset ds;
  auto directed = MakeDirectedPreferential(n, m_out, 0.9, rng).value();
  ds.name = StrFormat("twitter-like(n=%u,m_out=%u)", n, m_out);
  ds.graph = std::move(directed.mutual_graph);
  ds.attrs = AttributeTable(ds.graph.num_nodes());

  std::vector<double> in_deg(ds.graph.num_nodes());
  std::vector<double> out_deg(ds.graph.num_nodes());
  for (NodeId u = 0; u < ds.graph.num_nodes(); ++u) {
    in_deg[u] = static_cast<double>(directed.in_degree[u]);
    out_deg[u] = static_cast<double>(directed.out_degree[u]);
  }
  WNW_CHECK_OK(ds.attrs.AddColumn("in_degree", std::move(in_deg)));
  WNW_CHECK_OK(ds.attrs.AddColumn("out_degree", std::move(out_deg)));
  AddLandmarkPathColumn(&ds, seed);
  if (with_expensive_attrs) AddClusteringColumn(&ds);
  ds.diameter_estimate = EstimateDiameter(ds.graph, seed);
  return ds;
}

SocialDataset MakeSmallScaleFree(uint64_t seed) {
  Rng rng(Mix64(seed ^ 0x5ca1eu));
  SocialDataset ds;
  ds.name = "small-scale-free(n=1000)";
  // BA with m = 7: 28 + 992*7 = 6972 edges, matching the paper's 1000-node,
  // ~6951-edge exact-bias graph.
  ds.graph = MakeBarabasiAlbert(1000, 7, rng).value();
  ds.attrs = AttributeTable(ds.graph.num_nodes());
  AddClusteringColumn(&ds);
  ds.diameter_estimate = EstimateDiameter(ds.graph, seed);
  return ds;
}

SocialDataset MakeSyntheticBA(NodeId n, uint32_t m, uint64_t seed) {
  Rng rng(Mix64(seed ^ 0xba5eu));
  SocialDataset ds;
  ds.name = StrFormat("synthetic-ba(n=%u,m=%u)", n, m);
  ds.graph = MakeBarabasiAlbert(n, m, rng).value();
  ds.attrs = AttributeTable(ds.graph.num_nodes());
  ds.diameter_estimate = EstimateDiameter(ds.graph, seed);
  return ds;
}

Result<Graph> DatasetSpec::Build(uint64_t seed) const {
  if (kind == Kind::kUniformRandom) {
    return MakeUniformRandomMultigraph(n, m, seed);
  }
  Rng rng(seed);
  return MakeBarabasiAlbert(n, m, rng);
}

Result<DatasetSpec> ParseDatasetSpec(std::string_view name) {
  DatasetSpec spec;
  std::string_view prefix;
  if (name.starts_with("ba:")) {
    prefix = "ba";
  } else if (name.starts_with("rand:")) {
    prefix = "rand";
    spec.kind = DatasetSpec::Kind::kUniformRandom;
  } else {
    return Status::NotFound("'" + std::string(name) +
                            "' is not a ba:N,M or rand:N,M dataset");
  }
  const auto parts = SplitString(name.substr(prefix.size() + 1), ",");
  uint64_t n = 0, m = 0;
  if (parts.size() != 2 || !ParseUint64(parts[0], &n) ||
      !ParseUint64(parts[1], &m)) {
    return Status::InvalidArgument("expected --dataset " +
                                   std::string(prefix) + ":N,M");
  }
  if (n > UINT32_MAX || m > UINT32_MAX) {
    return Status::InvalidArgument("--dataset " + std::string(name) +
                                   ": N and M must be at most 4294967295");
  }
  spec.n = static_cast<NodeId>(n);
  spec.m = static_cast<uint32_t>(m);
  return spec;
}

}  // namespace wnw
