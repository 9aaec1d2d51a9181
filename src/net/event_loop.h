// An epoll reactor: the concurrency substrate of the service tier.
//
// One EventLoop is one thread multiplexing many non-blocking sockets, so a
// server holding thousands of in-flight requests costs threads ≈ cores
// rather than threads ≈ window. The client side composes the same way: the
// CompletionExecutor (access/completion_executor.h) drives RemoteBackend
// fetches as completions off this loop, so the in-flight window costs
// pending frames, not parked threads.
//
// Threading model: everything except Post() and Stop() is loop-affine —
// handlers run on the loop thread, and Add/Modify/Remove/AddTimer must be
// called from it (or before Run() starts, while the loop is still single
// threaded). Cross-thread work enters through Post(fn), which appends to a
// mutex-guarded queue and wakes the loop via an eventfd. This keeps every
// per-connection structure lock-free: a connection's buffers are only ever
// touched by its loop's thread.
//
// Deadlines ride a hashed timer wheel (10 ms ticks, 512 slots) swept after
// every epoll_wait; the wait timeout is derived from the wheel's next due
// timer, so an idle loop sleeps in the kernel instead of polling.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/status.h"

namespace wnw::net {

/// Event bits for EventLoop::Add/Modify, mirroring EPOLLIN/EPOLLOUT without
/// leaking <sys/epoll.h> into every includer.
inline constexpr uint32_t kEventRead = 1u << 0;
inline constexpr uint32_t kEventWrite = 1u << 1;

/// A hashed timer wheel over a caller-supplied monotonic clock (seconds).
/// Not thread-safe — it lives inside one EventLoop and is exposed
/// separately only so the bucketing/cancellation logic is testable without
/// sockets. Callbacks fire from AdvanceTo() in deadline-bucket order.
class TimerWheel {
 public:
  static constexpr double kTickSeconds = 0.010;
  static constexpr size_t kSlots = 512;

  /// Schedules `cb` to fire once `now + delay_seconds` is reached. Returns
  /// a handle for Cancel(); handles are never reused.
  uint64_t Add(double now, double delay_seconds, std::function<void()> cb);

  /// Drops a pending timer. No-op for already-fired or unknown handles.
  void Cancel(uint64_t id);

  /// Fires every timer whose deadline is <= now. Callbacks may Add() new
  /// timers; they become eligible on the next advance.
  void AdvanceTo(double now);

  /// Seconds until the earliest pending deadline (clamped to >= 0), or -1
  /// when no timers are pending. O(pending + slots): called once per loop
  /// iteration, against at most a few thousand in-flight deadlines.
  double NextDelay(double now) const;

  size_t pending() const { return pending_; }

 private:
  struct Entry {
    uint64_t id;
    double deadline;
    std::function<void()> cb;
  };

  std::vector<Entry> slots_[kSlots];
  std::unordered_set<uint64_t> live_;       // added, not yet fired/cancelled
  std::unordered_set<uint64_t> cancelled_;  // cancelled, not yet swept out
  uint64_t next_id_ = 1;
  uint64_t swept_tick_ = 0;  // highest tick AdvanceTo has fully processed
  size_t pending_ = 0;
};

/// One reactor thread's worth of event dispatch. Create() can fail (fd
/// exhaustion), so construction goes through a factory.
class EventLoop {
 public:
  using IoHandler = std::function<void(uint32_t events)>;

  static Result<std::unique_ptr<EventLoop>> Create();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for the given kEvent bits. The handler is retained via
  /// shared_ptr, so a handler that removes itself (or another fd) while a
  /// dispatch batch is in flight stays alive until the batch finishes —
  /// stale events for removed fds are skipped, not delivered.
  Status Add(int fd, uint32_t events, IoHandler handler);
  Status Modify(int fd, uint32_t events);
  Status Remove(int fd);

  /// Runs `fn` on the loop thread. The only cross-thread entry point
  /// (besides Stop); safe to call from any thread, including the loop's.
  void Post(std::function<void()> fn);

  /// Schedules `cb` on the loop thread after `delay_seconds`. Loop-affine.
  uint64_t AddTimer(double delay_seconds, std::function<void()> cb);
  void CancelTimer(uint64_t id);

  /// Dispatches until Stop(). Must be called by exactly one thread, which
  /// becomes the loop thread.
  void Run();

  /// Signals Run() to return after the current iteration. Thread-safe.
  void Stop();

  bool in_loop_thread() const {
    return std::this_thread::get_id() ==
           loop_thread_.load(std::memory_order_relaxed);
  }

  /// Monotonic seconds on this loop's clock (steady_clock, epoch = Create).
  double NowSeconds() const;

 private:
  EventLoop(int epoll_fd, int wake_fd);

  void DrainWake();
  void RunPosted();

  int epoll_fd_;
  int wake_fd_;
  std::unordered_map<int, std::shared_ptr<IoHandler>> handlers_;
  TimerWheel timers_;
  std::atomic<bool> stopped_{false};
  // Atomic: callers on any thread ask in_loop_thread() while Run() starts.
  std::atomic<std::thread::id> loop_thread_{};
  std::chrono::steady_clock::time_point epoch_;

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
};

}  // namespace wnw::net
