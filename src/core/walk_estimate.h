// WALK-ESTIMATE (paper §3-§5): the paper's contribution. A swap-in
// replacement for any input random-walk sampler that forgoes burn-in:
//
//   1. WALK a short, fixed number of steps t = 2*D̄(G) + 1 (D̄ a conservative
//      diameter upper bound; paper §4.3) and take the node v at step t as a
//      *candidate*;
//   2. ESTIMATE the candidate's sampling probability p_t(v) with backward
//      random walks (core/estimate.h);
//   3. acceptance-rejection with the percentile-bootstrapped scale
//      (mcmc/rejection.h) corrects the output to the input walk's stationary
//      distribution.
//
// The four experiment variants of Figure 9 are configuration points:
// WE-None (no heuristics), WE-Crawl, WE-Weighted, WE (both).
#pragma once

#include <memory>
#include <string_view>

#include "core/estimate.h"
#include "core/walker_program.h"
#include "mcmc/rejection.h"

namespace wnw {

struct WalkEstimateOptions {
  /// Forward walk length t. 0 means "derive as 2 * diameter_bound + 1".
  int walk_length = 0;

  /// Conservative diameter upper bound D̄(G) (paper: 8-10 is a safe bet for
  /// real OSNs; 7 was used for Google Plus).
  int diameter_bound = 10;

  /// ESTIMATE configuration (crawl hops, WS-BW, repetition budget).
  EstimateOptions estimate;

  /// Acceptance-rejection scale bootstrap (paper: 10th percentile).
  RejectionOptions rejection;

  /// Guard: maximum candidate walks per sample before giving up.
  int max_candidates_per_draw = 100000;

  int EffectiveWalkLength() const {
    return walk_length > 0 ? walk_length : 2 * diameter_bound + 1;
  }
};

/// Named heuristic configurations from the paper's evaluation.
enum class WalkEstimateVariant {
  kFull,      // WE: crawl + weighted
  kNone,      // WE-None
  kCrawlOnly, // WE-Crawl
  kWeightedOnly,  // WE-Weighted
};

/// Applies a variant's heuristic switches onto `options`.
void ApplyVariant(WalkEstimateVariant variant, WalkEstimateOptions* options);
std::string_view VariantName(WalkEstimateVariant variant);

/// Compiles WALK-ESTIMATE to its step program. All draws of one walker
/// share one start node, one crawl ball, one WS-BW history, and one
/// rejection-scale bootstrap — the amortization the paper relies on.
/// Out-of-range options come back as InvalidArgument.
Result<std::unique_ptr<WalkerProgram>> MakeWalkEstimateProgram(
    const WalkEstimateOptions& options, const TransitionDesign* design,
    const ProgramContext& context);

}  // namespace wnw
