// Figure 8: relative error of AVG estimations vs query cost on the Twitter
// (-like) graph (directed preferential attachment reduced to mutual edges).
// Subfigures: (a) average in-degree, (b) average out-degree, (c) average
// shortest-path length (landmark attribute), (d) average local clustering
// coefficient — SRW baseline vs WE(SRW).
//
// Paper shape to reproduce: WE below SRW at matched query cost everywhere.
//
// Env: WNW_TRIALS (default 6), WNW_SCALE (default 1.0 = paper size), WNW_SEED.
#include "bench/error_vs_cost_bench.h"
#include "datasets/social_datasets.h"

int main() {
  using namespace wnw;
  using wnw::bench::Subfigure;
  const BenchEnv env = ReadBenchEnv(6, 1.0);
  const SocialDataset ds = MakeTwitterLike(env.scale, env.seed);

  WalkEstimateOptions wopts;
  wopts.diameter_bound = static_cast<int>(ds.diameter_estimate);
  wopts.estimate.crawl_hops = 2;  // paper: h = 2 for Twitter
  wopts.estimate.base_reps = 12;
  wopts.estimate.max_extra_reps = 24;
  BurnInOptions bopts;
  bopts.max_steps = 20000;

  std::vector<Subfigure> subs;
  const std::vector<AggregateSpec> aggregates = {
      {"avg_in_degree", "in_degree"},
      {"avg_out_degree", "out_degree"},
      {"avg_shortest_path", "path_len"},
      {"avg_clustering", "clustering"},
  };
  const char* tags[] = {"(a)", "(b)", "(c)", "(d)"};
  for (size_t i = 0; i < aggregates.size(); ++i) {
    subs.push_back({tags[i], MakeBurnInSpec("srw", bopts), aggregates[i]});
    subs.push_back({tags[i], MakeWalkEstimateSpec("srw", wopts),
                    aggregates[i]});
  }

  ErrorVsCostConfig config;
  config.sample_counts = {10, 20, 40, 80, 160};
  config.trials = env.trials;
  config.seed = env.seed;
  bench::RunErrorBench(
      "Figure 8: relative error vs query cost, Twitter-like", ds, subs,
      config);
  return 0;
}
