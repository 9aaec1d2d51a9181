// The experiment harness behind every relative-error figure (Figs. 6-11) and
// the exact-bias study (Table 1 / Fig. 12): builds per-trial sampling
// sessions, draws samples, estimates AVG aggregates at checkpoint sample
// counts, and averages query cost / relative error across trials (the paper
// averages 100 runs per data point; trials are configurable via WNW_TRIALS).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "access/access_interface.h"
#include "access/decorators.h"
#include "access/query_cache.h"
#include "core/registry.h"
#include "core/session.h"
#include "datasets/social_datasets.h"
#include "estimation/aggregates.h"
#include "estimation/empirical.h"

namespace wnw {

/// A labelled sampler configuration for experiment tables. Each trial opens
/// a fresh SamplingSession from `config` through the registry.
struct SamplerSpec {
  std::string label;
  SamplerConfig config;

  /// Which aggregate correction applies to this sampler's output. Derived
  /// from the walk design so it can never disagree with `config`.
  TargetBias bias() const { return BiasForWalkSpec(config.walk); }
};

/// Builds a SamplerSpec from a registry spec string ("we:mhrw?diameter=8");
/// the label is the canonical spec and the bias follows the walk design.
Result<SamplerSpec> MakeSamplerSpec(const std::string& spec_string);

/// Ready-made specs for the paper's contenders — thin wrappers over the
/// registry config builders, with the paper's figure labels.
SamplerSpec MakeBurnInSpec(const std::string& design_spec,
                           BurnInOptions options = {});
SamplerSpec MakeWalkEstimateSpec(const std::string& design_spec,
                                 WalkEstimateOptions options,
                                 WalkEstimateVariant variant =
                                     WalkEstimateVariant::kFull,
                                 const std::string& label_suffix = "");

/// The aggregate under estimation. column == "" means node degree.
struct AggregateSpec {
  std::string label;
  std::string column;
};

struct ErrorVsCostConfig {
  std::vector<int> sample_counts = {10, 20, 40, 80, 160};
  int trials = 10;
  uint64_t seed = 42;
  int threads = 0;  // 0 = hardware default
  AccessOptions access;  // restriction / rate-limit scenario

  /// Simulated network latency scenario, applied to every trial's backend —
  /// the per-trial private stacks, or the one shared stack when
  /// `shared_cache`/`backend` is set.
  std::optional<LatencyConfig> latency;

  /// Cross-session query cache shared by all (parallel) trials: trials
  /// reuse each other's neighbor lists, so later trials pay measurably
  /// fewer queries (Zhou et al.-style history reuse). Null = isolated
  /// trials, the paper's original protocol.
  std::shared_ptr<QueryCache> shared_cache;

  /// Shards the simulated origin for ALL trials: >= 1 builds ONE shared
  /// ShardedBackend (per-shard locks, limiters, latency stacks) that every
  /// trial talks to, like an explicit `backend` does — a sharded origin
  /// models one deployment, not a per-trial artifact. 0 = unsharded.
  int shards = 0;
  ShardPartition partition = ShardPartition::kModulo;

  /// Explicit backend stack for all trials; overrides
  /// `access`/`latency`/`shards`.
  std::shared_ptr<AccessBackend> backend;

  /// Path to a graph snapshot: every trial talks to ONE shared disk-backed
  /// origin (mmap'd, byte-identical to the in-memory origin) — like an
  /// explicit `backend`, a snapshot models one deployment. Composes with
  /// `latency`/`shards`; a load failure is logged and the run completes
  /// zero trials, matching the harness's other warning-logged failures.
  std::string snapshot;

  /// One fetch executor shared by ALL trials: their combined in-flight
  /// requests are bounded by its window, and (with a real-sleep latency
  /// backend) independent trials overlap each other's round trips. Set
  /// `async` to have the harness build it, or `executor` to share an
  /// existing one; both null = synchronous fetching.
  std::optional<AsyncOptions> async;
  std::shared_ptr<CompletionExecutor> executor;

  /// Registry spec string ("we:mhrw?diameter=8") used by the overload of
  /// RunErrorVsCost that takes no SamplerSpec.
  std::string sampler_spec;
};

struct CurvePoint {
  int samples = 0;
  double mean_query_cost = 0.0;     // unique backend fetches (paper metric)
  double mean_total_queries = 0.0;  // all API invocations incl. cache hits
  double mean_waited_seconds = 0.0; // simulated latency + rate-limit waiting
  double mean_rel_error = 0.0;
  int completed_trials = 0;
};

/// Runs the error-vs-cost experiment: for each trial, draw
/// max(sample_counts) samples and record (cost, relative error) at each
/// checkpoint; report per-checkpoint means across trials.
std::vector<CurvePoint> RunErrorVsCost(const SocialDataset& dataset,
                                       const SamplerSpec& sampler,
                                       const AggregateSpec& aggregate,
                                       const ErrorVsCostConfig& config);

/// Spec-string convenience: runs config.sampler_spec through the registry.
Result<std::vector<CurvePoint>> RunErrorVsCost(const SocialDataset& dataset,
                                               const AggregateSpec& aggregate,
                                               const ErrorVsCostConfig& config);

/// Exact ground truth for an AggregateSpec on a dataset.
double GroundTruth(const SocialDataset& dataset,
                   const AggregateSpec& aggregate);

/// Draws `num_samples` samples (split across workers, each with its own
/// session and start node) and accumulates the empirical node-visit
/// distribution — the Table 1 / Figure 12 measurement.
struct BiasRunResult {
  std::vector<double> empirical_pmf;
  uint64_t total_samples = 0;
  uint64_t total_query_cost = 0;
};
BiasRunResult RunEmpiricalDistribution(const SocialDataset& dataset,
                                       const SamplerSpec& sampler,
                                       uint64_t num_samples, uint64_t seed,
                                       int threads = 0);

/// Shared env-var knobs for the bench binaries:
/// WNW_TRIALS, WNW_SEED, WNW_SCALE, WNW_SAMPLES, WNW_THREADS.
struct BenchEnv {
  int trials;
  uint64_t seed;
  double scale;
  uint64_t samples;
};
BenchEnv ReadBenchEnv(int default_trials, double default_scale,
                      uint64_t default_samples = 0);

}  // namespace wnw
