// Figure 6: relative error of AVG estimations vs query cost on the Google
// Plus(-like) graph. Four subfigures: {SRW, MHRW} x {average degree,
// average self-description length}; each pits the Geweke-monitored input
// walk against WALK-ESTIMATE over the same input.
//
// Paper shape to reproduce: at matched query cost, WE's curve sits left/
// below the input walk's — lower error for the same number of queries.
//
// Env: WNW_TRIALS (default 10; paper used 100), WNW_SCALE (default 1.0 = 
// the paper's dataset size), WNW_SEED.
#include "bench/error_vs_cost_bench.h"
#include "datasets/social_datasets.h"

int main() {
  using namespace wnw;
  using wnw::bench::Subfigure;
  const BenchEnv env = ReadBenchEnv(10, 1.0);
  const SocialDataset ds = MakeGPlusLike(env.scale, env.seed);

  // Paper parameters (§7.1): d = 7 for Google Plus, crawl h = 1.
  WalkEstimateOptions wopts;
  wopts.diameter_bound = static_cast<int>(ds.diameter_estimate);
  wopts.estimate.crawl_hops = 1;
  BurnInOptions bopts;
  bopts.max_steps = 20000;

  const AggregateSpec avg_degree{"avg_degree", ""};
  const AggregateSpec avg_desc{"avg_self_desc_len", "self_desc_len"};

  std::vector<Subfigure> subs;
  subs.push_back({"(a)", MakeBurnInSpec("srw", bopts), avg_degree});
  subs.push_back({"(a)", MakeWalkEstimateSpec("srw", wopts), avg_degree});
  subs.push_back({"(b)", MakeBurnInSpec("srw", bopts), avg_desc});
  subs.push_back({"(b)", MakeWalkEstimateSpec("srw", wopts), avg_desc});
  subs.push_back({"(c)", MakeBurnInSpec("mhrw", bopts), avg_degree});
  subs.push_back({"(c)", MakeWalkEstimateSpec("mhrw", wopts), avg_degree});
  subs.push_back({"(d)", MakeBurnInSpec("mhrw", bopts), avg_desc});
  subs.push_back({"(d)", MakeWalkEstimateSpec("mhrw", wopts), avg_desc});

  ErrorVsCostConfig config;
  config.sample_counts = {10, 20, 40, 80, 160};
  config.trials = env.trials;
  config.seed = env.seed;
  bench::RunErrorBench(
      "Figure 6: relative error vs query cost, Google Plus-like", ds, subs,
      config);
  return 0;
}
