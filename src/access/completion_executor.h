// The completion executor: the access layer's single concurrency
// primitive, driving a bounded in-flight request window by COMPLETION
// rather than by blocked thread. It models a crawler that keeps at most
// `window` requests open against the OSN service at any instant (the
// paper's whole premise is that round trips, not compute, dominate
// sampling time — so the only way to go faster at fixed query cost is to
// keep the pipe full) without paying one OS thread per open request.
//
// Two dispatch paths share one FIFO admission queue and one window:
//
//   - completion-native backends (AccessBackend::completion_native(), today
//     RemoteBackend) take fetches as callback-completed operations: the
//     submission enqueues a pipelined frame and the backend's own client
//     event loop invokes the completion when the reply (or deadline/error)
//     arrives. 512 in-flight remote requests cost 512 pending frames and
//     ZERO executor threads.
//   - thread-backed origins (in-memory, snapshot, sharded, latency
//     decorators) run on a lazily grown worker pool. Non-blocking origins
//     share a small pool sized ≈ cores; origins that genuinely sleep the
//     serving thread (AccessBackend::may_block(), e.g. LatencyConfig::
//     sleep_scale > 0) may grow a thread per window slot so real waits
//     overlap — the pre-PR-8 behavior, now the exception instead of the
//     rule.
//
// The executor is the same primitive AccessInterface::PrefetchAsync /
// Wait, RunWalkerPool, and RunWalkEngine compose over:
//
//   - PrefetchAsync fans a batch out into per-node fetch operations and
//     returns immediately; compute overlaps the round trips and Wait() (or
//     the first query touching a pending node) folds the replies into the
//     session caches.
//   - With an executor attached, AccessInterface routes single fetches
//     through the window too, so N concurrent walkers sharing one executor
//     overlap each other's round trips while the service never sees more
//     than `window` requests in flight.
//
// Operations are leaf requests only — they never submit or wait on other
// operations — which keeps the bounded window deadlock-free by
// construction. The executor is thread-safe and shared: one executor
// models one crawler frontend, used by any number of sessions. See
// docs/CONCURRENCY.md for the full dispatch table.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "access/backend.h"

namespace wnw {

struct AsyncOptions {
  /// Maximum fetches in flight against the backend at any instant. 1 fully
  /// serializes all requests through the executor (the "wait" baseline).
  int window = 8;

  /// Worker-pool cap; 0 sizes the pool automatically: ≈ cores for
  /// non-blocking origins, up to `window` for origins that really sleep
  /// their serving thread. A nonzero value caps BOTH classes at `threads`
  /// (a pool smaller than the window then caps effective thread-backed
  /// concurrency at `threads`). Completion-native operations never consume
  /// a pool thread either way.
  int threads = 0;
};

/// Window-bounded fetch executor. Submissions admit FIFO; at most `window`
/// are open concurrently. Destruction cancels queued-but-unstarted
/// operations (their completions fire with FailedPrecondition), joins the
/// worker pool, and waits out in-flight native completions, so shutting
/// down with requests in flight is always safe.
class CompletionExecutor {
 public:
  using FetchFuture = std::future<Result<FetchReply>>;

  /// Invoked exactly once per submitted operation — from the backend's
  /// event loop for completion-native fetches, from a pool worker
  /// otherwise, or from the submitting/destructing thread on rejection or
  /// cancellation. Must not block or submit further executor work.
  using FetchCallback = std::function<void(Result<FetchReply>)>;

  /// The in-flight half of one SubmitBatch call. Wait() joins the
  /// per-request completions into a BatchReply whose lists parallel the
  /// submitted node order and whose simulated_seconds is the slowest
  /// request (concurrent dispatch: the batch completes when its last
  /// request does). Dropping a handle without waiting is safe — the
  /// underlying operations still run to completion and their results are
  /// discarded.
  class BatchHandle {
   public:
    BatchHandle() = default;
    BatchHandle(BatchHandle&&) = default;
    BatchHandle& operator=(BatchHandle&&) = default;
    BatchHandle(const BatchHandle&) = delete;
    BatchHandle& operator=(const BatchHandle&) = delete;

    /// Blocks until every request completed; at most one call. On a failed
    /// request the remaining completions are still drained and the first
    /// error is returned.
    Result<BatchReply> Wait();

    size_t size() const { return state_ == nullptr ? 0 : state_->slots.size(); }
    bool pending() const { return state_ != nullptr; }

   private:
    friend class CompletionExecutor;

    /// Shared with every per-request completion callback: slots fill in
    /// any order, the last one signals. Outlives the handle when dropped
    /// without Wait().
    struct State {
      std::mutex mu;
      std::condition_variable cv;
      size_t remaining = 0;
      std::vector<std::optional<Result<FetchReply>>> slots;
    };

    std::shared_ptr<State> state_;
  };

  explicit CompletionExecutor(AsyncOptions options = {});
  ~CompletionExecutor();

  CompletionExecutor(const CompletionExecutor&) = delete;
  CompletionExecutor& operator=(const CompletionExecutor&) = delete;

  // --- completion-first interface ------------------------------------------

  /// Submits one FetchNeighbors(node) operation; `done` fires exactly once
  /// with the reply. Routes natively (no thread) when the backend completes
  /// by callback, onto the worker pool otherwise. The backend is captured
  /// by shared_ptr for the operation's lifetime.
  void SubmitFetch(std::shared_ptr<AccessBackend> backend, NodeId node,
                   FetchCallback done);

  // --- future/batch conveniences over the completion interface -------------

  /// Enqueues one generic fetch task on the worker pool (assumed blocking:
  /// the closure's behavior is unknown). After shutdown began, the returned
  /// future resolves immediately with FailedPrecondition.
  FetchFuture Submit(std::function<Result<FetchReply>()> fn);

  /// SubmitFetch with a future instead of a callback.
  FetchFuture SubmitFetch(std::shared_ptr<AccessBackend> backend, NodeId node);

  /// Fans `nodes` out into one operation per node, all competing for the
  /// window. This is the truly concurrent counterpart of
  /// AccessBackend::FetchBatch; over a completion-native backend the whole
  /// batch pipelines on the wire with no thread parked.
  BatchHandle SubmitBatch(std::function<Result<FetchReply>(NodeId)> fetch,
                          std::span<const NodeId> nodes);
  BatchHandle SubmitBatch(std::shared_ptr<AccessBackend> backend,
                          std::span<const NodeId> nodes);

  const AsyncOptions& options() const { return options_; }
  int window() const { return options_.window; }

  struct Stats {
    uint64_t submitted = 0;   // operations accepted
    uint64_t completed = 0;   // operations that ran to completion; counted
                              // before the result is delivered
    uint64_t cancelled = 0;   // queued operations dropped by shutdown
    int max_in_flight = 0;    // peak concurrent operations (<= window)
    uint64_t native_completions = 0;  // completed off a backend event loop
    uint64_t pool_tasks = 0;          // ran on a pool worker thread
    int peak_threads = 0;             // peak pool-worker count ever spawned
  };
  Stats stats() const;

 private:
  /// One admitted-or-queued operation: native (backend+node, completed by
  /// the backend's loop) or pool (fn, run by a worker).
  struct Op {
    std::shared_ptr<AccessBackend> backend;  // native ops only
    NodeId node = 0;
    std::function<Result<FetchReply>()> fn;  // pool ops only
    bool blocking = false;                   // pool ops: may sleep for real
    FetchCallback done;

    bool IsPool() const { return fn != nullptr; }
  };

  /// One slot-filling completion for batch member i: writes the slot, and
  /// the completion that zeroes `remaining` wakes the waiter.
  static FetchCallback BatchSlotCallback(
      std::shared_ptr<BatchHandle::State> state, size_t i);

  /// Common tail of every Submit*: admission or shutdown rejection.
  void Enqueue(Op op);

  /// Admits queue-front operations while window slots are free: native ops
  /// dispatch immediately, a pool op at the front wakes (or spawns) a
  /// worker and waits its turn. Requires `lock` held on mu_; temporarily
  /// releases it around native dispatch. Reentrancy-safe: a completion
  /// firing inline inside a dispatch marks repump instead of recursing.
  void PumpLocked(std::unique_lock<std::mutex>& lock);

  /// Hands one native op to its backend. The completion wrapper retires
  /// the backend reference into retired_ BEFORE invoking `done`, so the
  /// last external release never lands on the backend's own event-loop
  /// thread (a RemoteBackend destructor joins that thread — see
  /// DrainRetired).
  void DispatchNative(Op op);

  /// Window-slot release for a native completion; pumps the queue.
  void OnNativeComplete();

  /// Spawns a worker if none is idle and the class cap (compute for
  /// non-blocking ops, blocking cap otherwise) has room. Caller holds mu_.
  void MaybeSpawnWorkerLocked(bool blocking);

  /// Releases retired native-op backend references on the calling thread.
  /// Called from submission paths and the destructor — never from a
  /// backend's event-loop thread or a pool worker, so a release that turns
  /// out to be the last one runs ~RemoteBackend (which joins its loop
  /// thread) from a safe thread.
  void DrainRetired();

  void WorkerLoop();

  AsyncOptions options_;
  int compute_cap_ = 1;   // pool cap for non-blocking thread-backed ops
  int blocking_cap_ = 1;  // pool cap for ops that really sleep

  mutable std::mutex mu_;
  std::condition_variable worker_cv_;  // queue/window/stop state changed
  std::condition_variable drain_cv_;   // in_flight_ reached 0 while stopping
  std::deque<Op> queue_;               // FIFO admission, both op kinds
  bool stopping_ = false;
  bool pumping_ = false;  // a thread is inside PumpLocked's dispatch loop
  bool repump_ = false;   // state changed while pumping_; loop again
  int in_flight_ = 0;     // admitted ops not yet completed (<= window)
  int pool_threads_ = 0;
  int idle_workers_ = 0;
  Stats stats_;
  std::vector<std::shared_ptr<AccessBackend>> retired_;  // see DrainRetired
  std::vector<std::thread> workers_;
};

}  // namespace wnw
