#include "core/walk_estimate.h"

#include <string>

#include "core/path_sampler.h"
#include "core/session.h"
#include "util/string_util.h"

namespace wnw {

void ApplyVariant(WalkEstimateVariant variant, WalkEstimateOptions* options) {
  switch (variant) {
    case WalkEstimateVariant::kFull:
      options->estimate.use_crawl = true;
      options->estimate.use_weighted = true;
      break;
    case WalkEstimateVariant::kNone:
      options->estimate.use_crawl = false;
      options->estimate.use_weighted = false;
      break;
    case WalkEstimateVariant::kCrawlOnly:
      options->estimate.use_crawl = true;
      options->estimate.use_weighted = false;
      break;
    case WalkEstimateVariant::kWeightedOnly:
      options->estimate.use_crawl = false;
      options->estimate.use_weighted = true;
      break;
  }
}

std::string_view VariantName(WalkEstimateVariant variant) {
  switch (variant) {
    case WalkEstimateVariant::kFull:
      return "WE";
    case WalkEstimateVariant::kNone:
      return "WE-None";
    case WalkEstimateVariant::kCrawlOnly:
      return "WE-Crawl";
    case WalkEstimateVariant::kWeightedOnly:
      return "WE-Weighted";
  }
  return "WE-?";
}

namespace {

std::string DesignParenName(std::string_view prefix,
                            const TransitionDesign* design) {
  return std::string(prefix) + "(" + std::string(design->name()) + ")";
}

// Range checks for the options both WALK-ESTIMATE samplers share.
Status ValidateWalkEstimate(const char* sampler,
                            const WalkEstimateOptions& options) {
  const std::string prefix = std::string("sampler '") + sampler + "': ";
  if (options.EffectiveWalkLength() < 1) {
    return Status::InvalidArgument(prefix + "walk_length must be >= 1");
  }
  if (options.estimate.base_reps < 1) {
    return Status::InvalidArgument(prefix + "base_reps must be >= 1");
  }
  if (options.estimate.use_weighted &&
      !(options.estimate.epsilon > 0.0 && options.estimate.epsilon <= 1.0)) {
    return Status::InvalidArgument(prefix + "epsilon must lie in (0, 1]");
  }
  if (options.rejection.mode == ScaleMode::kManual
          ? !(options.rejection.manual_scale > 0.0)
          : !(options.rejection.percentile >= 0.0 &&
              options.rejection.percentile <= 1.0)) {
    return Status::InvalidArgument(
        prefix + "scale must be > 0 and percentile must lie in [0, 1]");
  }
  return Status::OK();
}

// Shared skeleton of the two WALK-ESTIMATE programs. Phase 0 starts a
// forward walk from home (after the one-time estimator crawl); phase 1 takes
// its t design steps, recording the path. aux = steps into the walk; aux2 =
// walks started for the current sample.
class ForwardWalkProgram : public SessionProgram {
 public:
  ForwardWalkProgram(const WalkEstimateOptions& options,
                     const TransitionDesign* design, ProgramContext context,
                     std::string name)
      : SessionProgram(design, std::move(context), std::move(name)),
        base_(options) {}

  Status Init(EngineWalker& w) const override {
    WNW_RETURN_IF_ERROR(SessionProgram::Init(w));
    w.side->estimator = std::make_unique<ProbabilityEstimator>(
        design_, w.state.home, base_.EffectiveWalkLength(), base_.estimate);
    w.side->rejection = std::make_unique<RejectionSampler>(base_.rejection);
    return Status::OK();
  }

 protected:
  // The initial crawl, once per walker (no-op when disabled).
  static void PrepareOnce(WalkerSession& side) {
    if (side.prepared) return;
    side.estimator->Prepare(*side.access);
    side.prepared = true;
  }

  static void StartWalk(EngineWalker& w) {
    WalkerSession& side = *w.side;
    side.path_buf.clear();
    side.path_buf.push_back(w.state.home);
    w.state.node = w.state.home;
    w.state.aux = 0;
    w.state.phase = 1;
  }

  // One forward step. At step t the walk is complete: it is fed to the
  // WS-BW history and counted, and StepWalk returns true.
  bool StepWalk(EngineWalker& w) const {
    WalkerSession& side = *w.side;
    w.state.node = design_->Step(*side.access, w.state.node, w.rng);
    side.path_buf.push_back(w.state.node);
    const uint32_t t = static_cast<uint32_t>(base_.EffectiveWalkLength());
    if (++w.state.aux < t) return false;
    side.estimator->RecordForwardWalk(side.path_buf);
    ++side.walks;
    side.walk_steps += t;
    return true;
  }

  // Acceptance-rejection of candidate v toward the input walk's target
  // distribution, given its estimated sampling probability.
  bool Accept(EngineWalker& w, NodeId v, const PtEstimate& est) const {
    WalkerSession& side = *w.side;
    const double target = design_->StationaryWeight(*side.access, v);
    if (est.mean <= 0.0 || target <= 0.0) {
      // The estimator saw no probability mass: beta = q/p * scale clips to
      // 1, so the candidate is accepted outright (and the degenerate ratio
      // is kept out of the percentile bootstrap).
      return true;
    }
    return side.rejection->Accept(est.mean / target, w.rng);
  }

  WalkEstimateOptions base_;
};

// --- we ----------------------------------------------------------------------

// WALK-ESTIMATE: the node at step t is the candidate; its ESTIMATE and the
// rejection decision happen in the Resume that completes the walk.
class WalkEstimateProgram final : public ForwardWalkProgram {
 public:
  WalkEstimateProgram(const WalkEstimateOptions& options,
                      const TransitionDesign* design, ProgramContext context)
      : ForwardWalkProgram(options, design, std::move(context),
                           DesignParenName("WE", design)) {}

  Result<ResumeOutcome> Resume(EngineWalker& w,
                               FlatScan*) const override {
    WalkerSession& side = *w.side;
    if (w.state.phase == 0) {
      PrepareOnce(side);
      if (static_cast<int>(w.state.aux2) >= base_.max_candidates_per_draw) {
        w.state.aux2 = 0;
        return Status::ResourceExhausted(
            StrFormat("%s: no acceptance within %d candidates",
                      name_.c_str(), base_.max_candidates_per_draw));
      }
      ++w.state.aux2;
      StartWalk(w);
      return ResumeOutcome::kContinue;
    }
    if (!StepWalk(w)) return ResumeOutcome::kContinue;
    const NodeId v = w.state.node;
    const PtEstimate est = side.estimator->Estimate(*side.access, v, w.rng);
    w.state.phase = 0;
    if (Accept(w, v, est)) {
      w.Emit(v);
      w.state.aux2 = 0;
      if (w.full()) return ResumeOutcome::kDone;
    }
    return ResumeOutcome::kContinue;
  }

  void Report(const EngineWalker& w, SessionStats* stats) const override {
    const WalkerSession& side = *w.side;
    stats->candidates_tried = side.walks;
    stats->samples_accepted = w.state.emitted;
    stats->acceptance_rate =
        side.walks == 0 ? 0.0
                        : static_cast<double>(w.state.emitted) /
                              static_cast<double>(side.walks);
    stats->forward_steps = side.walk_steps;
    stats->backward_walks = side.estimator->total_backward_walks();
    stats->walks_run = side.walks;  // one candidate per walk
    stats->samples_per_walk = stats->acceptance_rate;
  }
};

// --- we-path -----------------------------------------------------------------

// The §6.1 path extension: the Resume that completes a walk estimates EVERY
// candidate along the path, queues the accepted ones in side.pending, and
// emits from the queue. Each emit ends one sample and resets the per-sample
// walk guard; a queue left over when the walker is full waits for its next
// sample (or is dropped when the walker is done).
class WalkEstimatePathProgram final : public ForwardWalkProgram {
 public:
  WalkEstimatePathProgram(const WalkEstimatePathOptions& options,
                          const TransitionDesign* design,
                          ProgramContext context)
      : ForwardWalkProgram(options.base, design, std::move(context),
                           DesignParenName("WE-Path", design)),
        options_(options) {}

  Result<ResumeOutcome> Resume(EngineWalker& w,
                               FlatScan*) const override {
    WalkerSession& side = *w.side;
    if (w.state.phase == 0) {
      PrepareOnce(side);
      if (!side.pending.empty()) return EmitPending(w);
      if (static_cast<int>(++w.state.aux2) > options_.max_walks_per_draw) {
        w.state.aux2 = 0;
        return Status::ResourceExhausted(
            StrFormat("%s: no acceptance within %d walks", name_.c_str(),
                      options_.max_walks_per_draw));
      }
      StartWalk(w);
      return ResumeOutcome::kContinue;
    }
    if (!StepWalk(w)) return ResumeOutcome::kContinue;
    // Every stride-th node from s_min to t is a candidate with its own
    // per-step sampling probability. Each candidate's backward walks start
    // by enumerating its neighbors, so batch-prefetch the whole candidate
    // set — one simulated round trip instead of one per candidate, kicked
    // off asynchronously so the fetches overlap the bookkeeping (results
    // fold in when the first estimate touches a candidate).
    const int t = base_.EffectiveWalkLength();
    const int s_min = options_.EffectiveMinStep();
    side.candidate_buf.clear();
    for (int s = s_min; s <= t; s += options_.stride) {
      side.candidate_buf.push_back(side.path_buf[static_cast<size_t>(s)]);
    }
    side.access->PrefetchAsync(side.candidate_buf);
    for (int s = s_min; s <= t; s += options_.stride) {
      const NodeId v = side.path_buf[static_cast<size_t>(s)];
      const PtEstimate est =
          side.estimator->EstimateAtStep(*side.access, v, s, w.rng);
      if (Accept(w, v, est)) side.pending.push_back(v);
    }
    w.state.phase = 0;
    return EmitPending(w);
  }

  void Report(const EngineWalker& w, SessionStats* stats) const override {
    const WalkerSession& side = *w.side;
    stats->walks_run = side.walks;
    stats->samples_accepted = w.state.emitted;
    stats->samples_per_walk =
        side.walks == 0 ? 0.0
                        : static_cast<double>(w.state.emitted) /
                              static_cast<double>(side.walks);
  }

 private:
  static ResumeOutcome EmitPending(EngineWalker& w) {
    WalkerSession& side = *w.side;
    while (!w.full() && !side.pending.empty()) {
      w.Emit(side.pending.front());
      side.pending.pop_front();
      w.state.aux2 = 0;
    }
    return w.full() ? ResumeOutcome::kDone : ResumeOutcome::kContinue;
  }

  WalkEstimatePathOptions options_;
};

}  // namespace

Result<std::unique_ptr<WalkerProgram>> MakeWalkEstimateProgram(
    const WalkEstimateOptions& options, const TransitionDesign* design,
    const ProgramContext& context) {
  WNW_RETURN_IF_ERROR(ValidateWalkEstimate("we", options));
  if (options.max_candidates_per_draw < 1) {
    return Status::InvalidArgument(
        "sampler 'we': max_candidates must be >= 1");
  }
  return std::unique_ptr<WalkerProgram>(
      std::make_unique<WalkEstimateProgram>(options, design, context));
}

Result<std::unique_ptr<WalkerProgram>> MakeWalkEstimatePathProgram(
    const WalkEstimatePathOptions& options, const TransitionDesign* design,
    const ProgramContext& context) {
  WNW_RETURN_IF_ERROR(ValidateWalkEstimate("we-path", options.base));
  if (options.stride < 1) {
    return Status::InvalidArgument("sampler 'we-path': stride must be >= 1");
  }
  if (options.EffectiveMinStep() < 1 ||
      options.EffectiveMinStep() > options.base.EffectiveWalkLength()) {
    return Status::InvalidArgument(
        "sampler 'we-path': the first candidate step (min_step, default "
        "diameter) must lie in [1, walk_length]");
  }
  if (options.max_walks_per_draw < 1) {
    return Status::InvalidArgument(
        "sampler 'we-path': max_walks must be >= 1");
  }
  return std::unique_ptr<WalkerProgram>(
      std::make_unique<WalkEstimatePathProgram>(options, design, context));
}

}  // namespace wnw
