#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "util/check.h"

namespace wnw::net {

namespace {

uint32_t ToEpollEvents(uint32_t events) {
  uint32_t out = 0;
  if (events & kEventRead) out |= EPOLLIN;
  if (events & kEventWrite) out |= EPOLLOUT;
  return out;
}

uint64_t TickFor(double deadline) {
  // ceil, so a timer never fires before its deadline's tick boundary.
  return static_cast<uint64_t>(
      std::ceil(deadline / TimerWheel::kTickSeconds));
}

}  // namespace

// --- TimerWheel ---------------------------------------------------------------

uint64_t TimerWheel::Add(double now, double delay_seconds,
                         std::function<void()> cb) {
  const uint64_t id = next_id_++;
  const double deadline = now + std::max(0.0, delay_seconds);
  // Never bucket into the current (possibly already-swept) tick: a deadline
  // landing exactly on a tick boundary would otherwise wait a full wheel
  // rotation before its slot is visited again.
  const uint64_t tick = std::max(
      TickFor(deadline), static_cast<uint64_t>(now / kTickSeconds) + 1);
  Entry entry{id, deadline, std::move(cb)};
  slots_[tick % kSlots].push_back(std::move(entry));
  live_.insert(id);
  ++pending_;
  return id;
}

void TimerWheel::Cancel(uint64_t id) {
  // Only ids still resident in a slot may be cancelled; a fired, already
  // cancelled, or unknown id must neither poison cancelled_ (the entry
  // would never be swept out) nor undercount pending_.
  const auto it = live_.find(id);
  if (it == live_.end()) return;
  live_.erase(it);
  cancelled_.insert(id);
  WNW_DCHECK(pending_ > 0);
  --pending_;
}

void TimerWheel::AdvanceTo(double now) {
  const uint64_t target = static_cast<uint64_t>(now / kTickSeconds);
  if (target <= swept_tick_ && swept_tick_ != 0) return;
  // Visiting more than kSlots ticks revisits slots; clamp the sweep so a
  // long sleep costs one pass over the wheel, not one pass per tick.
  uint64_t first = swept_tick_ + 1;
  if (target >= first && target - first >= kSlots) first = target - kSlots + 1;
  std::vector<std::function<void()>> due;
  for (uint64_t tick = first; tick <= target; ++tick) {
    auto& slot = slots_[tick % kSlots];
    size_t keep = 0;
    for (size_t i = 0; i < slot.size(); ++i) {
      Entry& entry = slot[i];
      const auto it = cancelled_.find(entry.id);
      if (it != cancelled_.end()) {
        cancelled_.erase(it);  // cancelled: drop silently
        continue;
      }
      if (entry.deadline <= now) {
        due.push_back(std::move(entry.cb));
        live_.erase(entry.id);
        WNW_DCHECK(pending_ > 0);
        --pending_;
        continue;
      }
      // A later round of the wheel: stays in the slot.
      if (keep != i) slot[keep] = std::move(entry);
      ++keep;
    }
    slot.resize(keep);
  }
  swept_tick_ = target;
  // Fire after the wheel is consistent: callbacks may Add/Cancel freely.
  for (auto& cb : due) cb();
}

double TimerWheel::NextDelay(double now) const {
  if (pending_ == 0) return -1.0;
  double earliest = -1.0;
  for (const auto& slot : slots_) {
    for (const Entry& entry : slot) {
      if (cancelled_.count(entry.id)) continue;
      if (earliest < 0.0 || entry.deadline < earliest) {
        earliest = entry.deadline;
      }
    }
  }
  if (earliest < 0.0) return -1.0;
  return std::max(0.0, earliest - now);
}

// --- EventLoop ----------------------------------------------------------------

Result<std::unique_ptr<EventLoop>> EventLoop::Create() {
  const int epoll_fd = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) {
    return Status::IOError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  const int wake_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd < 0) {
    const int err = errno;
    ::close(epoll_fd);
    return Status::IOError(std::string("eventfd: ") + std::strerror(err));
  }
  std::unique_ptr<EventLoop> loop(new EventLoop(epoll_fd, wake_fd));
  struct epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd;
  if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl(wakeup): ") +
                           std::strerror(errno));
  }
  return loop;
}

EventLoop::EventLoop(int epoll_fd, int wake_fd)
    : epoll_fd_(epoll_fd),
      wake_fd_(wake_fd),
      epoch_(std::chrono::steady_clock::now()) {}

EventLoop::~EventLoop() {
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

double EventLoop::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

Status EventLoop::Add(int fd, uint32_t events, IoHandler handler) {
  struct epoll_event ev{};
  ev.events = ToEpollEvents(events);
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl(add): ") +
                           std::strerror(errno));
  }
  handlers_[fd] = std::make_shared<IoHandler>(std::move(handler));
  return Status::OK();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  struct epoll_event ev{};
  ev.events = ToEpollEvents(events);
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl(mod): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status EventLoop::Remove(int fd) {
  if (handlers_.erase(fd) == 0) {
    return Status::NotFound("EventLoop::Remove: fd " + std::to_string(fd) +
                            " is not registered");
  }
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr) != 0) {
    return Status::IOError(std::string("epoll_ctl(del): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

void EventLoop::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  const uint64_t one = 1;
  // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

uint64_t EventLoop::AddTimer(double delay_seconds, std::function<void()> cb) {
  return timers_.Add(NowSeconds(), delay_seconds, std::move(cb));
}

void EventLoop::CancelTimer(uint64_t id) { timers_.Cancel(id); }

void EventLoop::DrainWake() {
  uint64_t counter = 0;
  while (::read(wake_fd_, &counter, sizeof(counter)) > 0) {
  }
}

void EventLoop::RunPosted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

void EventLoop::Run() {
  loop_thread_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  constexpr int kMaxEvents = 128;
  struct epoll_event events[kMaxEvents];
  while (!stopped_.load(std::memory_order_acquire)) {
    const double next = timers_.NextDelay(NowSeconds());
    // -1 = sleep until an fd or a Post wakes us; otherwise round the timer
    // delay up so we never spin on a not-yet-due deadline.
    const int timeout_ms =
        next < 0.0 ? -1
                   : static_cast<int>(std::min(60'000.0, next * 1e3)) + 1;
    const int n = epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        DrainWake();
        continue;
      }
      auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;  // removed earlier in this batch
      uint32_t delivered = 0;
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        delivered |= kEventRead;
      }
      if (events[i].events & EPOLLOUT) delivered |= kEventWrite;
      // Keep the handler alive across the call even if it removes itself.
      std::shared_ptr<IoHandler> handler = it->second;
      (*handler)(delivered);
    }
    RunPosted();
    timers_.AdvanceTo(NowSeconds());
  }
  // One final drain so work posted concurrently with Stop() still runs
  // (Stop-time posts are used to fail pending RPCs, which must not leak).
  RunPosted();
}

void EventLoop::Stop() {
  stopped_.store(true, std::memory_order_release);
  Post([] {});  // wake the loop if it is sleeping in epoll_wait
}

}  // namespace wnw::net
