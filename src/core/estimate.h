// Algorithm ESTIMATE (paper §5.4, Algorithm 3): the production estimator of
// sampling probabilities. Combines UNBIASED-ESTIMATE with both
// variance-reduction heuristics (initial crawling, WS-BW weighted sampling)
// and repeats backward walks with a variance-aware budget: estimates that
// are still noisy receive more repetitions.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "access/access_interface.h"
#include "core/backward_estimator.h"
#include "core/crawler.h"
#include "mcmc/transition.h"
#include "random/rng.h"

namespace wnw {

struct EstimateOptions {
  /// Initial-crawling radius h (paper: 1 for Google Plus, 2 elsewhere).
  int crawl_hops = 2;
  /// Enables the initial-crawling heuristic (off = WE-None/WE-Weighted).
  bool use_crawl = true;
  /// Enables WS-BW weighted backward sampling (off = WE-None/WE-Crawl).
  bool use_weighted = true;
  /// WS-BW floor (paper default eps = 0.1).
  double epsilon = 0.1;
  /// Backward-walk repetitions always spent per estimate.
  int base_reps = 6;
  /// Additional repetitions allowed when the estimate is still noisy.
  int max_extra_reps = 18;
  /// Stop spending extra reps once the relative standard error of the mean
  /// falls below this.
  double target_rse = 0.5;
};

/// A repeated-backward-walk estimate of one p_t(u).
struct PtEstimate {
  double mean = 0.0;
  double variance = 0.0;  // sample variance of single-walk estimates
  int reps = 0;

  /// Variance of the mean estimate.
  double mean_variance() const {
    return reps > 1 ? variance / static_cast<double>(reps) : variance;
  }
};

/// Stateful estimator bound to one (design, start node, walk length)
/// configuration — exactly the state a WALK-ESTIMATE sampling session keeps.
class ProbabilityEstimator {
 public:
  ProbabilityEstimator(const TransitionDesign* design, NodeId start,
                       int walk_length, EstimateOptions options = {});

  /// Performs the initial crawl (billed to `access`). Must be called once
  /// before Estimate() when options.use_crawl is set; no-op otherwise.
  void Prepare(AccessInterface& access);

  /// Feeds one forward trajectory into the WS-BW hit-count history.
  void RecordForwardWalk(std::span<const NodeId> path);

  /// Estimates p_t(u) for the configured walk length t (Algorithm 3's
  /// per-node step with adaptive repetitions).
  PtEstimate Estimate(AccessInterface& access, NodeId u, Rng& rng);

  /// Estimates p_s(u) for an intermediate step s <= walk_length — used by
  /// the path sampler (§6.1 extension) which turns every node along a walk
  /// into a candidate.
  PtEstimate EstimateAtStep(AccessInterface& access, NodeId u, int step,
                            Rng& rng);

  /// Algorithm 3 verbatim: estimates p_t for every node in `nodes` with
  /// base_reps walks each, then spends `extra_budget` additional backward
  /// walks on nodes drawn with probability proportional to their current
  /// estimation variance.
  std::vector<PtEstimate> EstimateBatch(AccessInterface& access,
                                        std::span<const NodeId> nodes,
                                        int extra_budget, Rng& rng);

  const HitCountHistory& history() const { return history_; }
  const CrawlBall* ball() const { return ball_ ? &*ball_ : nullptr; }
  int walk_length() const { return walk_length_; }
  const EstimateOptions& options() const { return options_; }

  /// Total backward-walk repetitions spent so far (per-session telemetry).
  uint64_t total_backward_walks() const { return total_backward_walks_; }

 private:
  const TransitionDesign* design_;
  NodeId start_;
  int walk_length_;
  EstimateOptions options_;
  HitCountHistory history_;
  std::optional<CrawlBall> ball_;
  std::unique_ptr<BackwardEstimator> backward_;
  uint64_t total_backward_walks_ = 0;
};

}  // namespace wnw
