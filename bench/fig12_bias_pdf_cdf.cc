// Figure 12: PDF and CDF of the sampling distributions on the small
// scale-free graph, with nodes ordered by degree (descending): theoretical
// target (uniform), SRW (measured), WE (measured).
//
// Paper shape to reproduce: SRW's PDF is inflated on the high-degree
// (left) side and its CDF rises above the diagonal early; WE's curves hug
// the theoretical ones.
//
// Env: WNW_SAMPLES (default 100000), WNW_SEED, WNW_THREADS,
//      WNW_PRINT_EVERY (default 20: print every k-th node).
#include <cstdio>

#include "datasets/social_datasets.h"
#include "estimation/empirical.h"
#include "experiments/harness.h"
#include "util/string_util.h"
#include "util/table.h"

int main() {
  using namespace wnw;
  const BenchEnv env = ReadBenchEnv(1, 1.0, /*samples=*/100000);
  const uint64_t print_every = EnvUint64("WNW_PRINT_EVERY", 20);
  const SocialDataset ds = MakeSmallScaleFree(env.seed);
  const NodeId n = ds.graph.num_nodes();
  const std::vector<double> uniform(n, 1.0 / n);

  BurnInOptions bopts;
  bopts.max_steps = 10000;
  const auto srw_run = RunEmpiricalDistribution(
      ds, MakeBurnInSpec("srw", bopts), env.samples, env.seed + 1);

  WalkEstimateOptions wopts;
  wopts.diameter_bound = static_cast<int>(ds.diameter_estimate);
  const auto we_run = RunEmpiricalDistribution(
      ds, MakeWalkEstimateSpec("mhrw", wopts), env.samples, env.seed + 2);

  // Order nodes by degree descending (the paper's x-axis).
  std::vector<double> degree_key(n);
  for (NodeId u = 0; u < n; ++u) degree_key[u] = ds.graph.Degree(u);
  const auto theo = OrderByKeyDescending(uniform, degree_key);
  const auto srw = OrderByKeyDescending(srw_run.empirical_pmf, degree_key);
  const auto we = OrderByKeyDescending(we_run.empirical_pmf, degree_key);

  TablePrinter table({"rank_by_degree", "degree", "pdf_theo", "pdf_srw",
                      "pdf_we", "cdf_theo", "cdf_srw", "cdf_we"});
  table.AddComment("Figure 12: sampling-distribution PDF/CDF, nodes ordered "
                   "by degree (descending)");
  table.AddComment(StrFormat("dataset: %s; %llu samples per sampler",
                             ds.name.c_str(),
                             static_cast<unsigned long long>(env.samples)));
  for (NodeId rank = 0; rank < n; rank += static_cast<NodeId>(print_every)) {
    table.AddRow({TablePrinter::Cell(uint64_t{rank}),
                  TablePrinter::Cell(uint64_t{
                      ds.graph.Degree(theo.order[rank])}),
                  TablePrinter::CellPrec(theo.pdf[rank], 4),
                  TablePrinter::CellPrec(srw.pdf[rank], 4),
                  TablePrinter::CellPrec(we.pdf[rank], 4),
                  TablePrinter::CellPrec(theo.cdf[rank], 4),
                  TablePrinter::CellPrec(srw.cdf[rank], 4),
                  TablePrinter::CellPrec(we.cdf[rank], 4)});
  }
  table.Print(stdout);
  return 0;
}
