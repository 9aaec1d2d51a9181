#include "core/estimate.h"

#include <cmath>
#include <limits>

#include "random/sampling.h"
#include "util/check.h"

namespace wnw {

namespace {

// Welford accumulator for single-walk estimate streams.
struct Welford {
  double mean = 0.0;
  double m2 = 0.0;
  int n = 0;

  void Add(double x) {
    ++n;
    const double d1 = x - mean;
    mean += d1 / n;
    m2 += d1 * (x - mean);
  }

  PtEstimate ToEstimate() const {
    PtEstimate e;
    e.mean = mean;
    e.variance = n > 1 ? m2 / (n - 1) : 0.0;
    e.reps = n;
    return e;
  }

  // Relative standard error of the mean; +inf until meaningful.
  double Rse() const {
    if (n < 2 || mean <= 0.0) return std::numeric_limits<double>::infinity();
    const double sd_mean = std::sqrt((m2 / (n - 1)) / n);
    return sd_mean / mean;
  }
};

}  // namespace

ProbabilityEstimator::ProbabilityEstimator(const TransitionDesign* design,
                                           NodeId start, int walk_length,
                                           EstimateOptions options)
    : design_(design),
      start_(start),
      walk_length_(walk_length),
      options_(options),
      history_(walk_length) {
  WNW_CHECK(design_ != nullptr);
  WNW_CHECK(walk_length_ >= 1);
  WNW_CHECK(options_.base_reps >= 1);
  WNW_CHECK(options_.max_extra_reps >= 0);
  if (!options_.use_crawl) {
    BackwardWalkOptions bw;
    bw.weighted = options_.use_weighted;
    bw.epsilon = options_.epsilon;
    backward_ = std::make_unique<BackwardEstimator>(design_, start_, bw,
                                                    nullptr, &history_);
  }
}

void ProbabilityEstimator::Prepare(AccessInterface& access) {
  if (!options_.use_crawl || backward_ != nullptr) return;
  ball_.emplace(
      CrawlBall::Crawl(access, *design_, start_, options_.crawl_hops));
  BackwardWalkOptions bw;
  bw.weighted = options_.use_weighted;
  bw.epsilon = options_.epsilon;
  backward_ = std::make_unique<BackwardEstimator>(design_, start_, bw,
                                                  &*ball_, &history_);
}

void ProbabilityEstimator::RecordForwardWalk(std::span<const NodeId> path) {
  history_.RecordWalk(path);
}

PtEstimate ProbabilityEstimator::Estimate(AccessInterface& access, NodeId u,
                                          Rng& rng) {
  return EstimateAtStep(access, u, walk_length_, rng);
}

PtEstimate ProbabilityEstimator::EstimateAtStep(AccessInterface& access,
                                                NodeId u, int step,
                                                Rng& rng) {
  WNW_CHECK(backward_ != nullptr &&
            "call Prepare() before Estimate() when crawling is enabled");
  WNW_CHECK(step >= 0 && step <= walk_length_);
  Welford acc;
  for (int r = 0; r < options_.base_reps; ++r) {
    acc.Add(backward_->EstimateOnce(access, u, step, rng));
    ++total_backward_walks_;
  }
  // Adaptive phase: keep spending while the estimate is noisy. A mean of
  // zero cannot improve its RSE, so spend only while some mass was seen.
  int extra = 0;
  while (extra < options_.max_extra_reps && acc.mean > 0.0 &&
         acc.Rse() > options_.target_rse) {
    acc.Add(backward_->EstimateOnce(access, u, step, rng));
    ++total_backward_walks_;
    ++extra;
  }
  return acc.ToEstimate();
}

std::vector<PtEstimate> ProbabilityEstimator::EstimateBatch(
    AccessInterface& access, std::span<const NodeId> nodes, int extra_budget,
    Rng& rng) {
  WNW_CHECK(backward_ != nullptr &&
            "call Prepare() before EstimateBatch() when crawling is enabled");
  // Every node gets base_reps backward walks, each of which starts by
  // enumerating the node's neighbors — so the whole batch is prefetched in
  // one backend round trip, asynchronously: the replies fold in when the
  // first backward walk touches a batched node.
  access.PrefetchAsync(nodes);
  std::vector<Welford> accs(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (int r = 0; r < options_.base_reps; ++r) {
      accs[i].Add(backward_->EstimateOnce(access, nodes[i], walk_length_, rng));
      ++total_backward_walks_;
    }
  }
  // Algorithm 3 line 8: allocate the remaining budget to nodes drawn with
  // probability proportional to their current estimation variance.
  std::vector<double> variances(nodes.size());
  for (int b = 0; b < extra_budget; ++b) {
    double total = 0.0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      variances[i] = accs[i].ToEstimate().mean_variance();
      total += variances[i];
    }
    if (total <= 0.0) break;  // every estimate already exact
    const uint32_t pick = WeightedPick(variances, rng);
    accs[pick].Add(
        backward_->EstimateOnce(access, nodes[pick], walk_length_, rng));
    ++total_backward_walks_;
  }
  std::vector<PtEstimate> out;
  out.reserve(accs.size());
  for (const auto& acc : accs) out.push_back(acc.ToEstimate());
  return out;
}

}  // namespace wnw
