// The paper's baseline samplers plus the fixed-length walk chain, each
// compiled to its step program (core/walker_program.h).
//
// "Many short runs" (`burnin`, paper §6.1, the variant the paper compares
// against): each sample comes from a fresh walk from the start node that
// runs until a convergence monitor declares burn-in. "One long run"
// (`longrun`) burns in once and then emits every node it visits — cheaper
// but correlated (its effective sample size is measured in
// estimation/metrics.h). `walk` advances one persistent walk a fixed number
// of steps per sample, with no monitor at all.
#pragma once

#include <memory>

#include "core/walker_program.h"
#include "mcmc/convergence.h"
#include "mcmc/transition.h"
#include "util/status.h"

namespace wnw {

/// `burnin`: random walk with a Geweke burn-in monitor, one sample per
/// walk. The observable is the node degree (the paper's typical theta).
struct BurnInOptions {
  GewekeOptions geweke;
  /// Steps between convergence checks.
  int check_interval = 20;
  /// Walk at least this many steps before checking.
  int min_steps = 50;
  /// Hard cap: give up waiting and take the current node (logged).
  int max_steps = 50000;
};

/// `longrun`: burn in once, then every visited node (with optional
/// thinning) is a sample.
struct LongRunOptions {
  BurnInOptions burn_in;
  /// Keep every `thinning`-th node after burn-in (1 = keep all).
  int thinning = 1;
};

/// `walk`: every sample advances the persistent walk by a fixed number of
/// design steps and takes the landing node. This is the cheapest registered
/// sampler — a pure stream of walk steps — which makes it the natural
/// substrate for million-walker runs on the block engine, where convergence
/// bookkeeping per walker would dominate the walk itself.
struct FixedWalkOptions {
  /// Design steps taken per sample.
  int steps = 8;
};

// Program compilers. Out-of-range options come back as InvalidArgument.

Result<std::unique_ptr<WalkerProgram>> MakeBurnInProgram(
    const BurnInOptions& options, const TransitionDesign* design,
    const ProgramContext& context);
Result<std::unique_ptr<WalkerProgram>> MakeLongRunProgram(
    const LongRunOptions& options, const TransitionDesign* design,
    const ProgramContext& context);
/// `allow_flat` admits the flat form (the caller asserts the backend is
/// deterministic, unrestricted and cache-free, which is what makes
/// per-walker logical billing replicable without an AccessInterface).
Result<std::unique_ptr<WalkerProgram>> MakeFixedWalkProgram(
    const FixedWalkOptions& options, const TransitionDesign* design,
    const ProgramContext& context, bool allow_flat);

}  // namespace wnw
