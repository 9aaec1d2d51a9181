// Figure 11: average-degree estimation on synthetic Barabási–Albert graphs
// with 10,000 / 15,000 / 20,000 nodes (m = 5): (a) relative error vs query
// cost, (b) relative error vs number of samples. SRW input.
//
// Paper shape to reproduce: both SRW and WE cost more on larger graphs,
// but WE consistently outperforms SRW at every size; error-vs-samples
// curves are essentially size-independent.
//
// Env: WNW_TRIALS (default 8), WNW_SCALE (scales node counts, default 1.0),
//      WNW_SEED.
#include "bench/error_vs_cost_bench.h"
#include "datasets/social_datasets.h"

int main() {
  using namespace wnw;
  using wnw::bench::Subfigure;
  const BenchEnv env = ReadBenchEnv(8, 1.0);

  for (const uint32_t base : {10000u, 15000u, 20000u}) {
    const NodeId n = static_cast<NodeId>(
        std::max(1000.0, base * env.scale));
    const SocialDataset ds = MakeSyntheticBA(n, 5, env.seed + n);

    WalkEstimateOptions wopts;
    wopts.diameter_bound = static_cast<int>(ds.diameter_estimate);
    wopts.estimate.crawl_hops = 2;  // paper: h = 2 for synthetic graphs
    wopts.estimate.base_reps = 10;
    BurnInOptions bopts;
    bopts.max_steps = 20000;

    std::vector<Subfigure> subs;
    const AggregateSpec avg_degree{"avg_degree", ""};
    subs.push_back({"(a&b)", MakeBurnInSpec("srw", bopts), avg_degree});
    subs.push_back({"(a&b)", MakeWalkEstimateSpec("srw", wopts), avg_degree});

    ErrorVsCostConfig config;
    config.sample_counts = {10, 25, 50, 100, 200};
    config.trials = env.trials;
    config.seed = env.seed;
    bench::RunErrorBench(
        StrFormat("Figure 11: synthetic BA n=%u (SRW input)", n), ds, subs,
        config);
    std::printf("\n");
  }
  return 0;
}
