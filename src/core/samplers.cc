#include "core/samplers.h"

#include <string>

#include "core/session.h"
#include "util/logging.h"

namespace wnw {

namespace {

Status ValidateBurnIn(const char* sampler, const BurnInOptions& options) {
  if (options.min_steps < 1 || options.check_interval < 1 ||
      options.max_steps < options.min_steps) {
    return Status::InvalidArgument(
        std::string("sampler '") + sampler +
        "': burn-in needs min_steps >= 1, check_interval >= 1 and "
        "max_steps >= min_steps");
  }
  const GewekeOptions& geweke = options.geweke;
  if (!(geweke.first_frac > 0.0 && geweke.first_frac < 1.0) ||
      !(geweke.last_frac > 0.0 && geweke.last_frac < 1.0) ||
      geweke.first_frac + geweke.last_frac > 1.0) {
    return Status::InvalidArgument(
        std::string("sampler '") + sampler +
        "': geweke_first and geweke_last must lie in (0, 1) and sum to at "
        "most 1");
  }
  return Status::OK();
}

// Geweke burn-in, shared by burnin and longrun. BurnInStart begins a fresh
// monitored walk from home and observes the start node's degree.
void BurnInStart(EngineWalker& w, const BurnInOptions& options) {
  WalkerSession& side = *w.side;
  side.monitor = std::make_unique<GewekeMonitor>(options.geweke);
  w.state.node = w.state.home;
  side.monitor->Add(
      static_cast<double>(side.access->EffectiveDegree(w.state.node)));
  w.state.aux = 0;
}

// One design step of the monitored walk; aux counts its steps. Returns true
// when the walk is burned in (the Geweke verdict or the step cap).
bool BurnInStep(EngineWalker& w, const TransitionDesign& design,
                const BurnInOptions& options, std::string_view name) {
  WalkerSession& side = *w.side;
  w.state.node = design.Step(*side.access, w.state.node, w.rng);
  side.monitor->Add(
      static_cast<double>(side.access->EffectiveDegree(w.state.node)));
  const int steps = static_cast<int>(++w.state.aux);
  const bool capped = steps >= options.max_steps;
  if (!capped &&
      !(steps >= options.min_steps && steps % options.check_interval == 0 &&
        side.monitor->Converged())) {
    return false;
  }
  if (capped) {
    WNW_LOG(kDebug) << name << ": burn-in cap " << options.max_steps
                    << " hit; taking current node";
  }
  ++side.walks;
  side.walk_steps += w.state.aux;
  side.last_walk_steps = w.state.aux;
  return true;
}

// Shared tail of every fixed-stride walk: aux counts steps into the current
// stretch; every `stride`-th step emits the landing node.
ResumeOutcome CountStride(EngineWalker& w, int stride) {
  if (++w.state.aux == static_cast<uint32_t>(stride)) {
    w.state.aux = 0;
    w.Emit(w.state.node);
    if (w.full()) return ResumeOutcome::kDone;
  }
  return ResumeOutcome::kContinue;
}

// --- burnin ------------------------------------------------------------------

// "Many short runs": phase 0 starts a fresh monitored walk from home, phase
// 1 walks until the Geweke verdict (or the cap) and emits the landing node.
class BurnInProgram final : public SessionProgram {
 public:
  BurnInProgram(BurnInOptions options, const TransitionDesign* design,
                ProgramContext context)
      : SessionProgram(design, std::move(context),
                       DesignSuffixName(design, "+Geweke")),
        options_(options) {}

  Result<ResumeOutcome> Resume(EngineWalker& w,
                               FlatScan*) const override {
    if (w.state.phase == 0) {
      BurnInStart(w, options_);
      w.state.phase = 1;
      return ResumeOutcome::kContinue;
    }
    if (BurnInStep(w, *design_, options_, name_)) {
      w.Emit(w.state.node);
      w.state.phase = 0;
      if (w.full()) return ResumeOutcome::kDone;
    }
    return ResumeOutcome::kContinue;
  }

  void Report(const EngineWalker& w, SessionStats* stats) const override {
    const WalkerSession& side = *w.side;
    stats->last_burn_in = static_cast<int>(side.last_walk_steps);
    stats->average_burn_in =
        side.walks == 0 ? 0.0
                        : static_cast<double>(side.walk_steps) /
                              static_cast<double>(side.walks);
    stats->burned_in = w.state.emitted > 0;
  }

 private:
  BurnInOptions options_;
};

// --- longrun -----------------------------------------------------------------

// Burn in once (phase 0 -> 1), emit the first post-burn-in node, then emit
// every `thinning`-th node (phase 2).
class LongRunProgram final : public SessionProgram {
 public:
  LongRunProgram(LongRunOptions options, const TransitionDesign* design,
                 ProgramContext context)
      : SessionProgram(design, std::move(context),
                       DesignSuffixName(design, "+LongRun")),
        options_(options) {}

  Result<ResumeOutcome> Resume(EngineWalker& w,
                               FlatScan*) const override {
    switch (w.state.phase) {
      case 0:
        BurnInStart(w, options_.burn_in);
        w.state.phase = 1;
        return ResumeOutcome::kContinue;
      case 1:
        if (BurnInStep(w, *design_, options_.burn_in, name_)) {
          w.Emit(w.state.node);  // the first post-burn-in node is a sample
          w.state.phase = 2;
          w.state.aux = 0;
          if (w.full()) return ResumeOutcome::kDone;
        }
        return ResumeOutcome::kContinue;
      default:
        w.state.node = design_->Step(*w.side->access, w.state.node, w.rng);
        return CountStride(w, options_.thinning);
    }
  }

  void Report(const EngineWalker& w, SessionStats* stats) const override {
    stats->burned_in = w.state.emitted > 0;
  }

 private:
  LongRunOptions options_;
};

// --- walk --------------------------------------------------------------------

// `walk` at scale: POD state + WalkerMeter, with the concrete design's
// templated Step running on the worker's scan channel.
template <typename Design>
class FlatWalkProgram final : public WalkerProgram {
 public:
  FlatWalkProgram(FixedWalkOptions options, const Design* design)
      : options_(options),
        design_(design),
        name_(DesignSuffixName(design, "+FixedWalk")) {}

  std::string_view name() const override { return name_; }
  bool flat() const override { return true; }

  Status Init(EngineWalker& w) const override {
    w.state.node = w.state.home;
    return Status::OK();
  }

  Result<ResumeOutcome> Resume(EngineWalker& w,
                               FlatScan* scan) const override {
    FlatSource source{*scan, w.meter};
    w.state.node = design_->Step(source, w.state.node, w.rng);
    return CountStride(w, options_.steps);
  }

 private:
  FixedWalkOptions options_;
  const Design* design_;
  std::string name_;
};

template <typename Design>
std::unique_ptr<WalkerProgram> FlatWalkFor(const FixedWalkOptions& options,
                                           const TransitionDesign* design) {
  const auto* concrete = dynamic_cast<const Design*>(design);
  if (concrete == nullptr) return nullptr;
  return std::make_unique<FlatWalkProgram<Design>>(options, concrete);
}

// `walk` in session mode (restrictions or a shared cache in play): the
// walker owns a real access session.
class SessionWalkProgram final : public SessionProgram {
 public:
  SessionWalkProgram(FixedWalkOptions options, const TransitionDesign* design,
                     ProgramContext context)
      : SessionProgram(design, std::move(context),
                       DesignSuffixName(design, "+FixedWalk")),
        options_(options) {}

  Result<ResumeOutcome> Resume(EngineWalker& w,
                               FlatScan*) const override {
    w.state.node = design_->Step(*w.side->access, w.state.node, w.rng);
    return CountStride(w, options_.steps);
  }

 private:
  FixedWalkOptions options_;
};

}  // namespace

Result<std::unique_ptr<WalkerProgram>> MakeBurnInProgram(
    const BurnInOptions& options, const TransitionDesign* design,
    const ProgramContext& context) {
  WNW_RETURN_IF_ERROR(ValidateBurnIn("burnin", options));
  return std::unique_ptr<WalkerProgram>(
      std::make_unique<BurnInProgram>(options, design, context));
}

Result<std::unique_ptr<WalkerProgram>> MakeLongRunProgram(
    const LongRunOptions& options, const TransitionDesign* design,
    const ProgramContext& context) {
  WNW_RETURN_IF_ERROR(ValidateBurnIn("longrun", options.burn_in));
  if (options.thinning < 1) {
    return Status::InvalidArgument("sampler 'longrun': thinning must be >= 1");
  }
  return std::unique_ptr<WalkerProgram>(
      std::make_unique<LongRunProgram>(options, design, context));
}

Result<std::unique_ptr<WalkerProgram>> MakeFixedWalkProgram(
    const FixedWalkOptions& options, const TransitionDesign* design,
    const ProgramContext& context, bool allow_flat) {
  if (options.steps < 1) {
    return Status::InvalidArgument("sampler 'walk': steps must be >= 1");
  }
  if (allow_flat) {
    for (auto* flat_for :
         {&FlatWalkFor<SimpleRandomWalk>, &FlatWalkFor<LazyRandomWalk>,
          &FlatWalkFor<MetropolisHastingsWalk>, &FlatWalkFor<MaxDegreeWalk>}) {
      if (auto program = flat_for(options, design)) return program;
    }
  }
  return std::unique_ptr<WalkerProgram>(
      std::make_unique<SessionWalkProgram>(options, design, context));
}

}  // namespace wnw
