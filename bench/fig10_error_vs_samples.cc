// Figure 10: relative error of AVG estimations vs the NUMBER OF SAMPLES on
// the Google Plus(-like) graph — sample-quality view of Figure 6 (the same
// four subfigures). This isolates bias/variance of the produced samples
// from the cost of producing them.
//
// Paper shape to reproduce: for equal sample counts, WE's error is at or
// below the Geweke-monitored input walk's — the speedup is not bought with
// worse samples.
//
// Env: WNW_TRIALS (default 10), WNW_SCALE (default 1.0 = paper size), WNW_SEED.
#include "bench/error_vs_cost_bench.h"
#include "datasets/social_datasets.h"

int main() {
  using namespace wnw;
  using wnw::bench::Subfigure;
  const BenchEnv env = ReadBenchEnv(10, 1.0);
  const SocialDataset ds = MakeGPlusLike(env.scale, env.seed);

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
  config.sample_counts = {5, 10, 20, 40, 80, 120};
  config.trials = env.trials;
  config.seed = env.seed + 1;  // independent of the Fig. 6 run
  bench::RunErrorBench(
      "Figure 10: relative error vs number of samples, Google Plus-like",
      ds, subs, config);
  return 0;
}
