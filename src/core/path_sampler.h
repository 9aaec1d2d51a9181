// WALK-ESTIMATE over walk *paths* — the extension the paper sketches in
// §6.1: instead of taking only the final node of each short walk as a
// candidate, estimate the sampling probability p_s(v_s) of EVERY node along
// the path (for steps s past a minimum where the distribution has support
// everywhere) and acceptance-reject each one. Each forward walk can then
// yield several samples, amortizing its cost — at the price of weak
// correlation among samples from the same path (quantify it with
// EffectiveSampleSize; see bench/ablation_path_sampler).
#pragma once

#include <memory>

#include "core/walk_estimate.h"

namespace wnw {

struct WalkEstimatePathOptions {
  /// Walk length / estimation / rejection settings shared with the plain
  /// sampler.
  WalkEstimateOptions base;

  /// First step considered a candidate; 0 derives it from
  /// base.diameter_bound (the distribution can only have full support
  /// once the walk has covered the diameter).
  int min_candidate_step = 0;

  /// Consider every `stride`-th step in [min_candidate_step, t]. Larger
  /// strides trade samples-per-walk for weaker correlation.
  int stride = 1;

  /// Guard: walks attempted per sample before giving up.
  int max_walks_per_draw = 100000;

  int EffectiveMinStep() const {
    return min_candidate_step > 0 ? min_candidate_step : base.diameter_bound;
  }
};

/// Compiles the path sampler to its step program. It shares its forward
/// walk and acceptance step with the plain sampler, so it is defined next
/// to it in core/walk_estimate.cc. Out-of-range options come back as
/// InvalidArgument.
Result<std::unique_ptr<WalkerProgram>> MakeWalkEstimatePathProgram(
    const WalkEstimatePathOptions& options, const TransitionDesign* design,
    const ProgramContext& context);

}  // namespace wnw
