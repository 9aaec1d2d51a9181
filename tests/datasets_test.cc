#include <gtest/gtest.h>

#include "datasets/social_datasets.h"
#include "graph/algorithms.h"

namespace wnw {
namespace {

TEST(DatasetsTest, GPlusLikeShape) {
  const SocialDataset ds = MakeGPlusLike(0.05, 1);
  EXPECT_GE(ds.graph.num_nodes(), 400u);
  EXPECT_TRUE(IsConnected(ds.graph));
  EXPECT_TRUE(ds.attrs.HasColumn("self_desc_len"));
  EXPECT_GT(ds.diameter_estimate, 0u);
  // Dense scale-free: average degree well above the other datasets'.
  EXPECT_GT(ds.graph.average_degree(), 10.0);
}

TEST(DatasetsTest, GPlusAttributeNonNegative) {
  const SocialDataset ds = MakeGPlusLike(0.05, 2);
  const auto col = ds.attrs.Column("self_desc_len").value();
  for (double v : col) EXPECT_GE(v, 0.0);
}

TEST(DatasetsTest, YelpLikeShape) {
  const SocialDataset ds = MakeYelpLike(0.03, 3);
  EXPECT_GE(ds.graph.num_nodes(), 2000u);
  EXPECT_TRUE(IsConnected(ds.graph));
  EXPECT_TRUE(ds.attrs.HasColumn("stars"));
  EXPECT_TRUE(ds.attrs.HasColumn("path_len"));
  EXPECT_TRUE(ds.attrs.HasColumn("clustering"));
  // Stars live in Yelp's 1..5 range. (Copy the span out of the temporary
  // Result first — range-for does not lifetime-extend through .value().)
  const auto stars = ds.attrs.Column("stars").value();
  for (double s : stars) {
    EXPECT_GE(s, 1.0);
    EXPECT_LE(s, 5.0);
  }
}

TEST(DatasetsTest, YelpExpensiveAttrsSkippable) {
  const SocialDataset ds =
      MakeYelpLike(0.03, 4, /*with_expensive_attrs=*/false);
  EXPECT_FALSE(ds.attrs.HasColumn("clustering"));
  EXPECT_TRUE(ds.attrs.HasColumn("stars"));
}

TEST(DatasetsTest, TwitterLikeShape) {
  const SocialDataset ds = MakeTwitterLike(0.04, 5);
  EXPECT_GE(ds.graph.num_nodes(), 2000u);
  EXPECT_TRUE(IsConnected(ds.graph));
  EXPECT_TRUE(ds.attrs.HasColumn("in_degree"));
  EXPECT_TRUE(ds.attrs.HasColumn("out_degree"));
  EXPECT_TRUE(ds.attrs.HasColumn("path_len"));
}

TEST(DatasetsTest, TwitterInOutDegreesBalance) {
  const SocialDataset ds = MakeTwitterLike(0.04, 6);
  const auto in = ds.attrs.Column("in_degree").value();
  const auto out = ds.attrs.Column("out_degree").value();
  double in_sum = 0, out_sum = 0;
  for (size_t i = 0; i < in.size(); ++i) {
    in_sum += in[i];
    out_sum += out[i];
  }
  EXPECT_DOUBLE_EQ(in_sum, out_sum);
}

TEST(DatasetsTest, SmallScaleFreeMatchesPaperCounts) {
  const SocialDataset ds = MakeSmallScaleFree(7);
  EXPECT_EQ(ds.graph.num_nodes(), 1000u);
  // Paper: 6951 edges; our BA(1000, 7) construction gives 6972.
  EXPECT_NEAR(static_cast<double>(ds.graph.num_edges()), 6951.0, 50.0);
  EXPECT_TRUE(IsConnected(ds.graph));
}

TEST(DatasetsTest, SyntheticBASizes) {
  for (NodeId n : {NodeId{2000}, NodeId{4000}}) {
    const SocialDataset ds = MakeSyntheticBA(n, 5, 8);
    EXPECT_EQ(ds.graph.num_nodes(), n);
    EXPECT_TRUE(IsConnected(ds.graph));
    EXPECT_NEAR(ds.graph.average_degree(), 10.0, 1.0);  // 2m
  }
}

TEST(DatasetsTest, DeterministicForSeed) {
  const SocialDataset a = MakeYelpLike(0.03, 42, false);
  const SocialDataset b = MakeYelpLike(0.03, 42, false);
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_EQ(a.attrs.Column("stars").value()[17],
            b.attrs.Column("stars").value()[17]);
}

TEST(DatasetsTest, SmallDiameters) {
  // The paper's premise: OSNs have small diameters (3-8). Our stand-ins
  // must too, since WALK's 2*D+1 length depends on it.
  EXPECT_LE(MakeGPlusLike(0.05, 9).diameter_estimate, 6u);
  EXPECT_LE(MakeYelpLike(0.03, 9, false).diameter_estimate, 12u);
  EXPECT_LE(MakeTwitterLike(0.04, 9, false).diameter_estimate, 10u);
}

TEST(DatasetsTest, ParseDatasetSpecReadsBothFamilies) {
  const auto ba = ParseDatasetSpec("ba:200,3");
  ASSERT_TRUE(ba.ok()) << ba.status().ToString();
  EXPECT_EQ(ba->kind, DatasetSpec::Kind::kBarabasiAlbert);
  EXPECT_EQ(ba->n, 200u);
  EXPECT_EQ(ba->m, 3u);
  const auto graph = ba->Build(5);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 200u);

  const auto rand = ParseDatasetSpec("rand:4294967295,10");
  ASSERT_TRUE(rand.ok()) << rand.status().ToString();
  EXPECT_EQ(rand->kind, DatasetSpec::Kind::kUniformRandom);
  EXPECT_EQ(rand->n, 4294967295u);
  EXPECT_EQ(rand->m, 10u);
}

TEST(DatasetsTest, ParseDatasetSpecRejectsMalformedAndOversized) {
  // Named datasets are not parametric: NotFound, so callers fall through.
  EXPECT_EQ(ParseDatasetSpec("small").status().code(), StatusCode::kNotFound);
  for (const char* name :
       {"ba:", "ba:10", "ba:10,2,3", "ba:x,2", "rand:-1,2", "rand:10,",
        // Above UINT32_MAX: NodeId is 32-bit, so these used to wrap.
        "rand:4294967298,10", "ba:4294967306,2", "rand:10,4294967296"}) {
    EXPECT_EQ(ParseDatasetSpec(name).status().code(),
              StatusCode::kInvalidArgument)
        << name;
  }
}

}  // namespace
}  // namespace wnw
