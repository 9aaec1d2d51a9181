#include "core/registry.h"

#include <gtest/gtest.h>

#include "core/session.h"
#include "datasets/social_datasets.h"
#include "test_util.h"

namespace wnw {
namespace {

TEST(SamplerConfigTest, ParsesFullSpec) {
  const auto config =
      SamplerConfig::Parse("we:mhrw?variant=crawl&diameter=10");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->sampler, "we");
  EXPECT_EQ(config->walk, "mhrw");
  ASSERT_EQ(config->params.size(), 2u);
  EXPECT_EQ(config->params.at("variant"), "crawl");
  EXPECT_EQ(config->params.at("diameter"), "10");
}

TEST(SamplerConfigTest, WalkDefaultsToSrw) {
  const auto config = SamplerConfig::Parse("burnin");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->sampler, "burnin");
  EXPECT_EQ(config->walk, "srw");
  EXPECT_TRUE(config->params.empty());
}

TEST(SamplerConfigTest, WalkSpecMayContainColon) {
  const auto config = SamplerConfig::Parse("we:maxdeg:64?diameter=8");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->walk, "maxdeg:64");
}

TEST(SamplerConfigTest, RoundTripsThroughSpecString) {
  const char* specs[] = {
      "we:mhrw?variant=crawl&diameter=10",
      "burnin:srw?max_steps=20000",
      "longrun:srw?thinning=4",
      "we-path:mhrw",
      "we:maxdeg:64?diameter=8&epsilon=0.25",
      "we:lazy?percentile=0.05&walk_length=21",
  };
  for (const char* spec : specs) {
    const auto first = SamplerConfig::Parse(spec);
    ASSERT_TRUE(first.ok()) << spec;
    const std::string formatted = first->ToSpec();
    const auto second = SamplerConfig::Parse(formatted);
    ASSERT_TRUE(second.ok()) << formatted;
    EXPECT_EQ(*first, *second) << spec << " vs " << formatted;
    // Formatting is canonical: a second round trip is a fixed point.
    EXPECT_EQ(formatted, second->ToSpec());
  }
}

TEST(SamplerConfigTest, BuilderConfigsRoundTrip) {
  BurnInOptions bopts;
  bopts.max_steps = 20000;
  bopts.geweke.threshold = 0.01;
  WalkEstimateOptions wopts;
  wopts.diameter_bound = 7;
  wopts.estimate.epsilon = 0.2;
  WalkEstimatePathOptions popts;
  popts.stride = 3;
  const SamplerConfig configs[] = {
      MakeBurnInConfig("srw", bopts),
      MakeLongRunConfig("srw", {}),
      MakeWalkEstimateConfig("mhrw", wopts, WalkEstimateVariant::kCrawlOnly),
      MakeWalkEstimatePathConfig("mhrw", popts),
  };
  for (const auto& config : configs) {
    const auto parsed = SamplerConfig::Parse(config.ToSpec());
    ASSERT_TRUE(parsed.ok()) << config.ToSpec();
    EXPECT_EQ(*parsed, config) << config.ToSpec();
  }
}

TEST(SamplerConfigTest, BuilderEmitsOnlyNonDefaultValues) {
  EXPECT_EQ(MakeBurnInConfig("srw").ToSpec(), "burnin:srw");
  EXPECT_EQ(MakeWalkEstimateConfig("mhrw").ToSpec(), "we:mhrw");
  WalkEstimateOptions wopts;
  wopts.diameter_bound = 7;
  EXPECT_EQ(MakeWalkEstimateConfig("mhrw", wopts).ToSpec(),
            "we:mhrw?diameter=7");
  EXPECT_EQ(MakeWalkEstimateConfig("srw", {}, WalkEstimateVariant::kNone)
                .ToSpec(),
            "we:srw?variant=none");
}

TEST(SamplerConfigTest, MalformedSpecsReturnStatus) {
  const char* bad[] = {
      "",                       // empty sampler
      ":srw",                   // empty sampler, walk present
      "we:",                    // empty walk
      "we?diameter",            // parameter without '='
      "we?=10",                 // empty key
      "we?diameter=",           // empty value
      "we?diameter=5&diameter=6",  // duplicate key
  };
  for (const char* spec : bad) {
    const auto config = SamplerConfig::Parse(spec);
    EXPECT_FALSE(config.ok()) << spec;
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument) << spec;
  }
}

TEST(SamplerRegistryTest, GlobalHasBuiltins) {
  auto& registry = SamplerRegistry::Global();
  for (const char* name : {"burnin", "longrun", "we", "we-path"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    EXPECT_FALSE(registry.Summary(name).empty()) << name;
  }
  EXPECT_FALSE(registry.Contains("nope"));
}

TEST(SamplerRegistryTest, RejectsDuplicateRegistration) {
  auto& registry = SamplerRegistry::Global();
  const Status again = registry.Register(
      "we", {"dup", [](const SamplerConfig&, const TransitionDesign*,
                       const ProgramContext&,
                       bool) -> Result<std::unique_ptr<WalkerProgram>> {
               return Status::Internal("unreachable");
             }});
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
}

TEST(SamplerRegistryTest, UnknownSamplerIsNotFound) {
  const Graph g = testing::MakeTestBA(50, 3);
  const auto session = SamplingSession::Open(&g, "nope:srw");
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kNotFound);
  // The error names the registered samplers to help the caller.
  EXPECT_NE(session.status().message().find("we"), std::string::npos);
}

TEST(SamplerRegistryTest, UnknownParameterIsInvalidArgument) {
  const Graph g = testing::MakeTestBA(50, 3);
  for (const char* spec :
       {"we:srw?bogus=1", "burnin:srw?thinning=2", "we:srw?diameter=abc",
        "we:srw?variant=sideways", "longrun:srw?thinning=x",
        // Well-formed but out of range: rejected, never a crash.
        "burnin:srw?max_steps=10", "longrun:srw?thinning=0",
        "we:srw?max_candidates=0", "we-path:srw?diameter=3&walk_length=2",
        "burnin:srw?geweke_first=0.8&geweke_last=0.5", "we:srw?scale=0",
        "we:srw?percentile=2", "we:srw?base_reps=0", "we:srw?epsilon=0",
        "walk:srw?steps=0", "we-path:srw?stride=0",
        "we-path:srw?max_walks=0", "burnin:srw?geweke_threshold=nan",
        "we:mhrw?target_rse=-1",
        // Not a session key: the executor has no dispatch switch.
        "we:mhrw?window=8&dispatch=threads"}) {
    const auto session = SamplingSession::Open(&g, spec);
    ASSERT_FALSE(session.ok()) << spec;
    EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument) << spec;
  }
}

TEST(SamplerRegistryTest, EveryBuiltinDrawsOnSmallDataset) {
  const SocialDataset ds = MakeSmallScaleFree(/*seed=*/3);
  for (const auto& name : SamplerRegistry::Global().Names()) {
    // A modest diameter bound keeps the WE family fast on this graph; the
    // burn-in family ignores it... so pass only what each sampler takes.
    std::string spec = name + ":srw";
    if (name.rfind("we", 0) == 0) {
      spec += "?diameter=" + std::to_string(ds.diameter_estimate);
    }
    SessionOptions opts;
    opts.seed = 11;
    auto session_or = SamplingSession::Open(&ds.graph, spec, opts);
    ASSERT_TRUE(session_or.ok())
        << spec << ": " << session_or.status().ToString();
    SamplingSession& session = **session_or;
    const auto drawn = session.Draw();
    ASSERT_TRUE(drawn.ok()) << spec << ": " << drawn.status().ToString();
    EXPECT_LT(drawn.value(), ds.graph.num_nodes()) << spec;
    const SessionStats stats = session.Stats();
    EXPECT_EQ(stats.samples_drawn, 1u) << spec;
    EXPECT_GT(stats.query_cost, 0u) << spec;
    EXPECT_EQ(stats.spec, session.config().ToSpec()) << spec;
  }
}

}  // namespace
}  // namespace wnw
