// Walker programs: the single implementation of every registry sampler.
//
// Each sampler is written once, as a resumable step program: Resume()
// advances ONE logical walker by one design step (plus whatever bookkeeping
// the sampler performs at that step) and yields. All mutable state lives in
// the walker record, so the same program runs at every scale:
//
//   - SamplingSession::Draw drives the session's single walker until its
//     next emit;
//   - RunWalkerPool runs N such sessions, one per OS thread;
//   - RunWalkEngine (engine/walk_engine.h) multiplexes millions of walkers
//     over a handful of threads, re-bucketing each walker by the block of
//     its frontier node after every Resume.
//
// Because walkers never share randomness and deterministic backends answer
// identically in any order, a walker's samples and its logical costs
// (query_cost, total_queries, when no shared QueryCache is attached) do not
// depend on which of these drives it or in what order.
//
// Two walker shapes:
//
//  - Session mode (burnin, longrun, we, we-path, and walk under access
//    restrictions or a shared cache): the walker owns a WalkerSession — a
//    real AccessInterface plus whatever components the sampler needs
//    (GewekeMonitor, ProbabilityEstimator, RejectionSampler). This costs an
//    O(num_nodes) seen-bitmap per live walker; the engine bounds residency
//    with cohorts.
//  - Flat mode (the engine's `walk` against an unrestricted deterministic
//    backend with no shared cache): per-walker state shrinks to a POD record
//    plus a WalkerMeter, and the design's templated Step runs on a
//    FlatSource over the calling worker's scan channel — which is what makes
//    one million walkers on a disk-resident snapshot feasible.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "access/access_interface.h"
#include "core/estimate.h"
#include "mcmc/convergence.h"
#include "mcmc/rejection.h"
#include "mcmc/transition.h"
#include "random/rng.h"
#include "util/status.h"

namespace wnw {

struct SessionStats;  // core/session.h

/// The per-worker fetch channel flat programs scan through. Two shapes:
///
///  - `access` (general): a worker-owned AccessInterface over the shared
///    stack — needed whenever the stack carries decorators (latency, rate
///    limit) or an async executor whose billing must accrue.
///  - `direct` (fast path): when the stack is the bare in-memory origin —
///    flat mode already guarantees unrestricted + deterministic +
///    cache-free, so the only remaining question is decorators — neighbor
///    lists come straight off the CSR arena with one counter bump, skipping
///    the per-fetch reply object and session-cache map entirely. This is
///    what keeps a million multiplexed walkers ahead of the 64-thread pool
///    on per-step cost.
///
/// Logical identity is unaffected either way: per-walker query_cost /
/// total_queries live in the WalkerMeter, and both shapes return the same
/// deterministic neighbor lists.
struct FlatScan {
  AccessInterface* access = nullptr;  // decorated stacks
  const Graph* direct = nullptr;      // bare in-memory origin
  CostMeter* physical = nullptr;      // bills direct arena reads

  std::span<const NodeId> Neighbors(NodeId u) {
    if (direct != nullptr) {
      ++physical->backend_fetches;
      return direct->Neighbors(u);
    }
    return access->Neighbors(u);
  }
};

/// Flat-mode logical accounting: bills exactly what a private
/// AccessInterface would have billed this walker (one logical query per
/// neighbor-list access, distinct-node cost on first touch) without the
/// O(num_nodes) seen-bitmap — a walker only ever touches O(steps) distinct
/// nodes, so a small sorted vector suffices.
struct WalkerMeter {
  uint64_t total_queries = 0;
  uint64_t unique_cost = 0;
  uint64_t bytes_scanned = 0;        // adjacency bytes this walker read
  std::vector<NodeId> seen;          // sorted distinct nodes touched

  /// One logical neighbor-list query for u served through `scan` (the
  /// worker's fetch channel; physical-fetch telemetry accrues there).
  std::span<const NodeId> Fetch(FlatScan& scan, NodeId u) {
    ++total_queries;
    const std::span<const NodeId> list = scan.Neighbors(u);
    bytes_scanned += list.size_bytes();
    const auto it = std::lower_bound(seen.begin(), seen.end(), u);
    if (it == seen.end() || *it != u) {
      seen.insert(it, u);
      ++unique_cost;
    }
    return list;
  }
};

/// The neighbor source a flat walker's design steps on: the three
/// AccessInterface calls a transition design needs, answered through the
/// worker's scan channel and billed to the walker's meter. On the
/// unrestricted backends flat mode admits, these return the same lists and
/// bill the same logical queries as a private AccessInterface.
struct FlatSource {
  FlatScan& scan;
  WalkerMeter& meter;

  std::span<const NodeId> EffectiveNeighbors(NodeId u) {
    return meter.Fetch(scan, u);
  }
  uint32_t EffectiveDegree(NodeId u) {
    return static_cast<uint32_t>(EffectiveNeighbors(u).size());
  }
  NodeId SampleNeighbor(NodeId u, Rng& rng) {
    const auto nbrs = EffectiveNeighbors(u);
    if (nbrs.empty()) return kInvalidNode;
    return nbrs[rng.NextBounded(nbrs.size())];
  }
};

/// POD core of one logical walker. `aux`/`aux2`/`phase` are program-defined
/// (steps into the current walk, candidates or walks tried this draw, state
/// machine phase) — documented per program.
struct WalkerState {
  NodeId node = kInvalidNode;  // frontier: the block scheduler keys on this
  NodeId home = kInvalidNode;  // the walker's start node
  uint32_t emitted = 0;        // samples produced so far
  uint32_t aux = 0;
  uint32_t aux2 = 0;
  uint8_t phase = 0;
};

/// Session-mode baggage: the components a session-mode sampler needs, one
/// set per live walker. Flat-mode walkers leave this null.
struct WalkerSession {
  std::unique_ptr<AccessInterface> access;
  std::unique_ptr<GewekeMonitor> monitor;           // burnin / longrun
  std::unique_ptr<ProbabilityEstimator> estimator;  // we / we-path
  std::unique_ptr<RejectionSampler> rejection;      // we / we-path
  std::vector<NodeId> path_buf;
  std::vector<NodeId> candidate_buf;
  std::deque<NodeId> pending;  // we-path accepted-but-unemitted samples
  bool prepared = false;       // estimator crawl done

  // Telemetry WalkerProgram::Report reads: completed monitored or
  // candidate walks, their design steps, and the length of the last one.
  uint64_t walks = 0;
  uint64_t walk_steps = 0;
  uint32_t last_walk_steps = 0;
};

/// One logical walker, whoever drives it.
struct EngineWalker {
  WalkerState state;
  Rng rng{0};
  WalkerMeter meter;                     // flat mode only
  std::unique_ptr<WalkerSession> side;   // session mode only
  NodeId* out = nullptr;                 // the next sample slot
  uint32_t target = 0;                   // emit until `emitted` reaches it

  void Emit(NodeId v) {
    *out++ = v;
    ++state.emitted;
  }
  bool full() const { return state.emitted >= target; }
};

enum class ResumeOutcome {
  kContinue,  // walker still live; re-bucket by state.node
  kDone,      // walker emitted up to its target
};

/// A sampler as a step program. Stateless and shared by all walkers and
/// workers; all mutable state lives in the EngineWalker.
class WalkerProgram {
 public:
  virtual ~WalkerProgram() = default;

  virtual std::string_view name() const = 0;

  /// True when walkers run without a per-walker AccessInterface (POD state
  /// only; fetches go through the per-worker scan interface).
  virtual bool flat() const { return false; }

  /// Prepares a walker whose rng/home are already set: seeds state.node and
  /// any session-mode components.
  virtual Status Init(EngineWalker& w) const = 0;

  /// Advances the walker by one design step (plus the sampler's bookkeeping
  /// at that step). `scan` is the calling worker's fetch channel; only flat
  /// programs use it (session programs bill the walker's own side->access
  /// and may receive scan = nullptr).
  virtual Result<ResumeOutcome> Resume(EngineWalker& w,
                                       FlatScan* scan) const = 0;

  /// Fills the sampler-family fields of a session's stats from its walker.
  virtual void Report(const EngineWalker&, SessionStats*) const {}
};

/// Shared resources the programs hand to per-walker access sessions; all
/// resolved by ResolveSessionResources before compilation.
struct ProgramContext {
  std::shared_ptr<AccessBackend> backend;
  std::shared_ptr<QueryCache> query_cache;  // may be null
  std::shared_ptr<CompletionExecutor> executor;  // may be null
};

/// Base of the session-mode programs: Init gives the walker its own access
/// session over the shared stack and parks it at home in phase 0.
class SessionProgram : public WalkerProgram {
 public:
  SessionProgram(const TransitionDesign* design, ProgramContext context,
                 std::string name)
      : design_(design), context_(std::move(context)), name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

  Status Init(EngineWalker& w) const override {
    w.side = std::make_unique<WalkerSession>();
    w.side->access = std::make_unique<AccessInterface>(
        context_.backend, context_.query_cache, context_.executor);
    w.state.node = w.state.home;
    w.state.phase = 0;
    return Status::OK();
  }

 protected:
  const TransitionDesign* design_;
  ProgramContext context_;
  std::string name_;
};

/// "<design name><suffix>", the display name of most built-in samplers.
inline std::string DesignSuffixName(const TransitionDesign* design,
                                    std::string_view suffix) {
  return std::string(design->name()) + std::string(suffix);
}

}  // namespace wnw
