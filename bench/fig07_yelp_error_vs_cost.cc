// Figure 7: relative error of AVG estimations vs query cost on the Yelp
// (-like) user graph. Subfigures: (a) average degree, (b) average stars,
// (c) average shortest-path length (landmark attribute; see DESIGN.md),
// (d) average local clustering coefficient — SRW baseline vs WE(SRW).
//
// Paper shape to reproduce: WE reaches a given relative error at lower
// query cost across all four aggregates.
//
// Env: WNW_TRIALS (default 6), WNW_SCALE (default 1.0 = paper size), WNW_SEED.
#include "bench/error_vs_cost_bench.h"
#include "datasets/social_datasets.h"

int main() {
  using namespace wnw;
  using wnw::bench::Subfigure;
  const BenchEnv env = ReadBenchEnv(6, 1.0);
  const SocialDataset ds = MakeYelpLike(env.scale, env.seed);

  WalkEstimateOptions wopts;
  wopts.diameter_bound = static_cast<int>(ds.diameter_estimate);
  wopts.estimate.crawl_hops = 2;  // paper: h = 2 for Yelp
  // Sparse graph, long walk: spend more backward walks per estimate (see
  // EXPERIMENTS.md calibration note).
  wopts.estimate.base_reps = 12;
  wopts.estimate.max_extra_reps = 24;
  BurnInOptions bopts;
  bopts.max_steps = 20000;

  std::vector<Subfigure> subs;
  const std::vector<AggregateSpec> aggregates = {
      {"avg_degree", ""},
      {"avg_stars", "stars"},
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
  bench::RunErrorBench("Figure 7: relative error vs query cost, Yelp-like",
                       ds, subs, config);
  return 0;
}
