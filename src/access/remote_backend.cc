#include "access/remote_backend.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <future>
#include <mutex>
#include <unordered_map>

#include "net/wire.h"
#include "util/check.h"
#include "util/logging.h"

namespace wnw {

namespace {

using net::DecodedFrame;
using net::Frame;
using net::Opcode;

bool TransientCode(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded;
}

Result<std::pair<std::string, uint16_t>> ParseAddress(
    const std::string& addr) {
  const size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == addr.size()) {
    return Status::InvalidArgument("remote address '" + addr +
                                   "' is not host:port");
  }
  std::string host = addr.substr(0, colon);
  if (host == "localhost") host = "127.0.0.1";
  uint64_t port = 0;
  for (size_t i = colon + 1; i < addr.size(); ++i) {
    const char c = addr[i];
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("remote address '" + addr +
                                     "' has a non-numeric port");
    }
    port = port * 10 + static_cast<uint64_t>(c - '0');
    if (port > 65535) {
      return Status::InvalidArgument("remote address '" + addr +
                                     "' port is above 65535");
    }
  }
  return std::make_pair(std::move(host), static_cast<uint16_t>(port));
}

}  // namespace

/// One attempt's entry in its connection's pending map. Completion is
/// one-shot by ownership: whichever loop-thread path removes the entry
/// (reply, deadline timer, connection death) fires `complete`; a reply that
/// finds no entry is late and dropped.
struct RemoteBackend::PendingCall {
  uint64_t timer_id = 0;
  std::function<void(Status, uint16_t opcode, std::vector<std::byte>)>
      complete;
};

/// One pool connection. `mu` guards the shared fields: calling threads
/// append request frames and register pending calls, the loop thread reads,
/// flushes, and completes. The critical sections are buffer appends and map
/// operations — never a syscall that blocks.
struct RemoteBackend::Conn {
  std::mutex connect_mu;  // serializes EnsureConnected per connection

  std::mutex mu;
  int fd = -1;  // -1 = down
  std::vector<std::byte> in;
  std::vector<std::byte> out;  // staging: callers append encoded frames
  std::unordered_map<uint64_t, PendingCall> pending;

  // Loop-thread-only flush state. FlushConn moves `out` into `flushing`
  // with one swap under `mu`, then sends from `flushing` with no lock held:
  // a caller appending to `out` meanwhile may reallocate *that* vector, but
  // never the bytes in flight.
  std::vector<std::byte> flushing;
  size_t flush_pos = 0;
  bool want_write = false;  // EPOLLOUT interest currently registered
};

/// One RPC across its retry attempts. Immutable after creation except
/// `attempt`, which only the thread currently driving the call touches
/// (attempts never overlap: the next one is scheduled by the completion of
/// the previous).
struct RemoteBackend::Rpc {
  uint16_t opcode = 0;
  std::vector<std::byte> payload;
  int attempt = 0;
  RpcCallback done;
};

RemoteBackend::RemoteBackend(std::string addr, RemoteBackendOptions options)
    : addr_(std::move(addr)),
      name_("remote(" + addr_ + ")"),
      options_(options) {}

Result<std::shared_ptr<RemoteBackend>> RemoteBackend::Connect(
    const std::string& addr, RemoteBackendOptions options) {
  WNW_RETURN_IF_ERROR(ParseAddress(addr).status());
  if (options.connections < 1 || options.connections > 64) {
    return Status::InvalidArgument("remote connections must be in [1, 64]");
  }
  if (options.deadline_ms <= 0.0 || options.retry_backoff_ms < 0.0 ||
      options.connect_timeout_ms <= 0.0) {
    return Status::InvalidArgument(
        "remote deadline_ms / connect_timeout_ms must be > 0 and "
        "rpc_backoff_ms >= 0");
  }
  if (options.max_retries < 0 || options.max_retries > 100) {
    return Status::InvalidArgument("remote rpc_retries must be in [0, 100]");
  }
  std::shared_ptr<RemoteBackend> backend(new RemoteBackend(addr, options));
  WNW_ASSIGN_OR_RETURN(backend->loop_, net::EventLoop::Create());
  for (int i = 0; i < options.connections; ++i) {
    backend->conns_.push_back(std::make_unique<Conn>());
  }
  net::EventLoop* loop = backend->loop_.get();
  backend->loop_thread_ = std::thread([loop] { loop->Run(); });
  WNW_RETURN_IF_ERROR(backend->Handshake());
  return backend;
}

RemoteBackend::~RemoteBackend() {
  destroyed_.store(true, std::memory_order_release);
  if (loop_thread_.joinable()) {
    // Fail whatever is still in flight, then stop the loop. Sessions own
    // the backend via shared_ptr, so no *new* call can race destruction.
    RunOnLoop([this] {
      for (auto& conn : conns_) {
        KillConn(conn.get(),
                 Status::Unavailable("remote backend destroyed"));
      }
    });
    loop_->Stop();
    loop_thread_.join();
  }
}

void RemoteBackend::RunOnLoop(const std::function<void()>& fn) {
  if (loop_->in_loop_thread()) {
    fn();
    return;
  }
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  loop_->Post([&] {
    fn();
    // Notify UNDER the lock: done_cv lives on the caller's stack, and the
    // caller destroys it as soon as its wait returns. Holding done_mu
    // through the notify means the waiter cannot leave wait() until this
    // thread has released the mutex — i.e. until the broadcast has fully
    // finished with the condition variable.
    std::lock_guard<std::mutex> lock(done_mu);
    done = true;
    done_cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done; });
}

Result<std::vector<std::byte>> RemoteBackend::Await(
    uint16_t opcode, std::vector<std::byte> request_payload) {
  // The reply is delivered by the loop thread, so waiting on it there
  // would never return. Checked in every build: the compare is nothing
  // next to a round trip, and the alternative is a silent hang.
  WNW_CHECK(!loop_->in_loop_thread());
  // The promise is shared with the callback: the setter may still be
  // inside set_value when this thread wakes and returns.
  auto reply =
      std::make_shared<std::promise<Result<std::vector<std::byte>>>>();
  auto future = reply->get_future();
  CallAsync(opcode, std::move(request_payload),
            [reply](Result<std::vector<std::byte>> response) {
              reply->set_value(std::move(response));
            });
  return future.get();
}

namespace {

Result<FetchReply> DecodeFetchReply(Result<std::vector<std::byte>> response) {
  WNW_RETURN_IF_ERROR(response.status());
  WNW_ASSIGN_OR_RETURN(net::NeighborsReply decoded,
                       net::DecodeNeighborsReply(*response));
  FetchReply reply;
  reply.SetOwned(std::move(decoded.neighbors));
  reply.simulated_seconds = decoded.simulated_seconds;
  reply.serial_seconds = decoded.serial_seconds;
  reply.shard = decoded.shard;
  return reply;
}

}  // namespace

Status RemoteBackend::Handshake() {
  WNW_ASSIGN_OR_RETURN(const std::vector<std::byte> response,
                       Await(static_cast<uint16_t>(Opcode::kStats), {}));
  WNW_ASSIGN_OR_RETURN(const net::StatsReply stats,
                       net::DecodeStatsReply(response));
  if (stats.num_nodes == 0) {
    return Status::InvalidArgument("remote server '" + addr_ +
                                   "' reports an empty graph");
  }
  num_nodes_ = stats.num_nodes;
  access_.restriction = static_cast<NeighborRestriction>(stats.restriction);
  access_.max_neighbors = stats.max_neighbors;
  access_.bidirectional_check = stats.bidirectional != 0;
  access_.seed = stats.server_seed;
  origin_shards_ = static_cast<int>(stats.shards);
  origin_name_ = stats.origin;
  return Status::OK();
}

Result<FetchReply> RemoteBackend::FetchNeighbors(NodeId u) {
  std::vector<std::byte> payload;
  net::EncodeFetchRequest(u, &payload);
  return DecodeFetchReply(Await(
      static_cast<uint16_t>(Opcode::kFetchNeighbors), std::move(payload)));
}

void RemoteBackend::FetchNeighborsCompletion(NodeId u,
                                             CompletionCallback done) {
  std::vector<std::byte> payload;
  net::EncodeFetchRequest(u, &payload);
  CallAsync(static_cast<uint16_t>(Opcode::kFetchNeighbors), std::move(payload),
            [done = std::move(done)](Result<std::vector<std::byte>> response) {
              done(DecodeFetchReply(std::move(response)));
            });
}

Result<BatchReply> RemoteBackend::FetchBatch(std::span<const NodeId> nodes) {
  // One frame per batch; the 64 MiB payload cap bounds the request size
  // far above any crawl frontier.
  if (nodes.size() > (net::kMaxPayloadBytes - 64) / sizeof(NodeId)) {
    return Status::InvalidArgument(
        "remote batch of " + std::to_string(nodes.size()) +
        " nodes exceeds the wire frame limit");
  }
  std::vector<std::byte> payload;
  net::EncodeBatchRequest(nodes, &payload);
  WNW_ASSIGN_OR_RETURN(
      const std::vector<std::byte> response,
      Await(static_cast<uint16_t>(Opcode::kFetchBatch), std::move(payload)));
  WNW_ASSIGN_OR_RETURN(BatchReply reply, net::DecodeBatchReply(response));
  if (reply.lists.size() != nodes.size()) {
    return Status::InvalidArgument(
        "remote FetchBatch answered " + std::to_string(reply.lists.size()) +
        " lists for " + std::to_string(nodes.size()) + " requests");
  }
  return reply;
}

Result<RemoteBackend::ServerCounters> RemoteBackend::FetchServerCounters() {
  WNW_ASSIGN_OR_RETURN(const std::vector<std::byte> response,
                       Await(static_cast<uint16_t>(Opcode::kStats), {}));
  WNW_ASSIGN_OR_RETURN(const net::StatsReply stats,
                       net::DecodeStatsReply(response));
  return ServerCounters{stats.requests_served, stats.connections_accepted};
}

void RemoteBackend::CallAsync(uint16_t opcode,
                              std::vector<std::byte> request_payload,
                              RpcCallback done) {
  rpcs_.fetch_add(1, std::memory_order_relaxed);
  auto rpc = std::make_shared<Rpc>();
  rpc->opcode = opcode;
  rpc->payload = std::move(request_payload);
  rpc->done = std::move(done);
  StartAttempt(std::move(rpc));
}

Result<RemoteBackend::Conn*> RemoteBackend::PickConn() {
  const size_t start = next_conn_.fetch_add(1, std::memory_order_relaxed);
  if (loop_->in_loop_thread()) {
    // A connect here stalls the loop, and with it every live connection's
    // replies: prefer a connection that is already up. Only when the whole
    // pool is down — nothing in flight to stall — does the loop reconnect.
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn* candidate = conns_[(start + i) % conns_.size()].get();
      std::lock_guard<std::mutex> lock(candidate->mu);
      if (candidate->fd >= 0) return candidate;
    }
  }
  Conn* conn = conns_[start % conns_.size()].get();
  WNW_RETURN_IF_ERROR(EnsureConnected(conn));
  return conn;
}

void RemoteBackend::StartAttempt(std::shared_ptr<Rpc> rpc) {
  Result<Conn*> picked = PickConn();
  if (!picked.ok()) {
    FinishOrRetry(std::move(rpc), picked.status(), 0, {});
    return;
  }
  Conn* conn = *picked;
  const uint64_t id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  bool registered = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->fd >= 0) {
      Frame frame;
      frame.opcode = static_cast<Opcode>(rpc->opcode);
      frame.request_id = id;
      frame.payload = rpc->payload;
      const size_t before = conn->out.size();
      net::EncodeFrame(frame, &conn->out);
      bytes_sent_.fetch_add(conn->out.size() - before,
                            std::memory_order_relaxed);
      conn->pending[id].complete = [this, rpc](Status status, uint16_t opcode,
                                               std::vector<std::byte> reply) {
        FinishOrRetry(rpc, std::move(status), opcode, std::move(reply));
      };
      registered = true;
    }
  }
  if (!registered) {
    FinishOrRetry(std::move(rpc),
                  Status::Unavailable("remote connection to '" + addr_ +
                                      "' went down"),
                  0, {});
    return;
  }
  const double deadline_seconds = options_.deadline_ms / 1e3;
  loop_->Post([this, conn, id, deadline_seconds] {
    // Arm the deadline before flushing: once bytes hit the wire a reply can
    // race in, and the reply path cancels by timer_id.
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      const auto it = conn->pending.find(id);
      if (it == conn->pending.end()) return;  // already completed
      it->second.timer_id = loop_->AddTimer(
          deadline_seconds, [this, conn, id] { TimeoutCall(conn, id); });
    }
    FlushConn(conn);
  });
}

void RemoteBackend::FinishOrRetry(std::shared_ptr<Rpc> rpc, Status status,
                                  uint16_t opcode,
                                  std::vector<std::byte> payload) {
  if (status.ok() && opcode != rpc->opcode) {
    status = Status::InvalidArgument(
        "remote server answered with opcode " + std::to_string(opcode) +
        ", expected " + std::to_string(rpc->opcode));
  }
  if (status.ok()) {
    rpc->done(std::move(payload));
    return;
  }
  if (!TransientCode(status.code()) ||
      rpc->attempt >= options_.max_retries ||
      destroyed_.load(std::memory_order_acquire)) {
    rpc->done(std::move(status));
    return;
  }
  ++rpc->attempt;
  retries_.fetch_add(1, std::memory_order_relaxed);
  const double backoff_seconds =
      options_.retry_backoff_ms * rpc->attempt / 1e3;
  // The backoff parks on the timer wheel, not a thread. AddTimer is
  // loop-affine, so hop there first when needed.
  auto rearm = [this, rpc = std::move(rpc), backoff_seconds]() mutable {
    if (backoff_seconds > 0.0) {
      loop_->AddTimer(backoff_seconds, [this, rpc = std::move(rpc)]() mutable {
        StartAttempt(std::move(rpc));
      });
    } else {
      StartAttempt(std::move(rpc));
    }
  };
  if (loop_->in_loop_thread()) {
    rearm();
  } else {
    loop_->Post(std::move(rearm));
  }
}

Status RemoteBackend::EnsureConnected(Conn* conn) {
  std::unique_lock<std::mutex> connect_lock(conn->connect_mu,
                                            std::defer_lock);
  if (!loop_->in_loop_thread()) {
    connect_lock.lock();
  } else if (!connect_lock.try_lock()) {
    // The holder is a caller thread waiting for this very loop to register
    // its new socket; blocking here would deadlock both.
    return Status::Unavailable("remote connection to '" + addr_ +
                               "' is being re-established");
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->fd >= 0) return Status::OK();
  }
  WNW_ASSIGN_OR_RETURN(const auto host_port, ParseAddress(addr_));
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(host_port.second);
  if (inet_pton(AF_INET, host_port.first.c_str(), &dst.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("remote host '" + host_port.first +
                                   "' is not a dotted IPv4 address");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&dst), sizeof(dst)) != 0 &&
      errno != EINPROGRESS) {
    const Status status = Status::Unavailable(
        "connect to " + addr_ + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  pollfd pfd{fd, POLLOUT, 0};
  const int timeout_ms =
      static_cast<int>(std::max(1.0, options_.connect_timeout_ms));
  const int polled = ::poll(&pfd, 1, timeout_ms);
  if (polled <= 0) {
    ::close(fd);
    return Status::Unavailable("connect to " + addr_ + ": timed out after " +
                               std::to_string(timeout_ms) + "ms");
  }
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
      so_error != 0) {
    ::close(fd);
    return Status::Unavailable("connect to " + addr_ + ": " +
                               std::strerror(so_error != 0 ? so_error
                                                           : errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  // Hand the socket to the loop. Registration must complete before any
  // caller can enqueue a request on it.
  Status registered = Status::OK();
  RunOnLoop([&] {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->fd = fd;
      conn->in.clear();
      conn->out.clear();
      conn->flushing.clear();
      conn->flush_pos = 0;
      conn->want_write = false;
    }
    registered = loop_->Add(
        fd, net::kEventRead,
        [this, conn](uint32_t events) { OnConnIo(conn, events); });
    if (!registered.ok()) {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->fd = -1;
      ::close(fd);
    }
  });
  return registered;
}

void RemoteBackend::OnConnIo(Conn* conn, uint32_t events) {
  if (events & net::kEventWrite) FlushConn(conn);
  if ((events & net::kEventRead) == 0) return;
  char buf[64 * 1024];
  while (true) {
    int fd;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      fd = conn->fd;
    }
    if (fd < 0) return;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_received_.fetch_add(static_cast<uint64_t>(n),
                                std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(conn->mu);
      const std::byte* bytes = reinterpret_cast<const std::byte*>(buf);
      conn->in.insert(conn->in.end(), bytes, bytes + n);
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    KillConn(conn, Status::Unavailable(
                       n == 0 ? "remote server closed the connection"
                              : std::string("remote read: ") +
                                    std::strerror(errno)));
    return;
  }
  ProcessConnInput(conn);
}

void RemoteBackend::ProcessConnInput(Conn* conn) {
  // Completions collected under the lock, signaled outside it.
  std::vector<std::pair<PendingCall, DecodedFrame>> ready;
  std::vector<std::vector<std::byte>> payload_copies;
  Status poison = Status::OK();
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    size_t consumed = 0;
    while (consumed < conn->in.size()) {
      DecodedFrame frame;
      auto taken = net::DecodeFrame(
          std::span<const std::byte>(conn->in).subspan(consumed), &frame);
      if (!taken.ok()) {
        poison = taken.status();
        break;
      }
      if (*taken == 0) break;
      consumed += *taken;
      const auto it = conn->pending.find(frame.request_id);
      if (it == conn->pending.end()) {
        // A reply that outlived its deadline: already failed, drop it.
        continue;
      }
      PendingCall call = std::move(it->second);
      conn->pending.erase(it);
      loop_->CancelTimer(call.timer_id);
      payload_copies.emplace_back(frame.payload.begin(), frame.payload.end());
      ready.emplace_back(std::move(call), frame);
    }
    if (consumed > 0) {
      conn->in.erase(conn->in.begin(),
                     conn->in.begin() + static_cast<ptrdiff_t>(consumed));
    }
  }
  for (size_t i = 0; i < ready.size(); ++i) {
    const DecodedFrame& frame = ready[i].second;
    if (frame.status != StatusCode::kOk) {
      // An error response: the payload is the server's status message.
      const std::string msg(
          reinterpret_cast<const char*>(payload_copies[i].data()),
          payload_copies[i].size());
      ready[i].first.complete(Status::FromCode(frame.status, msg),
                              frame.opcode, {});
    } else {
      ready[i].first.complete(Status::OK(), frame.opcode,
                              std::move(payload_copies[i]));
    }
  }
  if (!poison.ok()) {
    // Framing violation: the stream cannot be resynchronized. Fail callers
    // with the specific decode Status (not retried — the peer is broken).
    KillConn(conn, poison);
  }
}

void RemoteBackend::FlushConn(Conn* conn) {
  WNW_DCHECK(loop_->in_loop_thread());
  while (true) {
    int fd;
    if (conn->flush_pos >= conn->flushing.size()) {
      conn->flushing.clear();
      conn->flush_pos = 0;
      std::lock_guard<std::mutex> lock(conn->mu);
      fd = conn->fd;
      if (fd < 0) return;
      if (conn->out.empty()) {
        if (conn->want_write) {
          conn->want_write = false;
          (void)loop_->Modify(fd, net::kEventRead);
        }
        return;
      }
      conn->flushing.swap(conn->out);
    } else {
      std::lock_guard<std::mutex> lock(conn->mu);
      fd = conn->fd;
      if (fd < 0) return;
    }
    // The send runs outside the lock against the loop-thread-owned
    // `flushing` buffer; concurrent caller appends only touch `out`.
    const ssize_t n =
        ::send(fd, conn->flushing.data() + conn->flush_pos,
               conn->flushing.size() - conn->flush_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->flush_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (!conn->want_write && conn->fd >= 0) {
        conn->want_write = true;
        (void)loop_->Modify(fd, net::kEventRead | net::kEventWrite);
      }
      return;
    }
    KillConn(conn, Status::Unavailable(std::string("remote write: ") +
                                       std::strerror(errno)));
    return;
  }
}

void RemoteBackend::KillConn(Conn* conn, const Status& why) {
  std::unordered_map<uint64_t, PendingCall> failed;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->fd >= 0) {
      (void)loop_->Remove(conn->fd);
      ::close(conn->fd);
      conn->fd = -1;
    }
    conn->in.clear();
    conn->out.clear();
    conn->flushing.clear();
    conn->flush_pos = 0;
    conn->want_write = false;
    failed.swap(conn->pending);
  }
  for (auto& [id, call] : failed) {
    loop_->CancelTimer(call.timer_id);
    call.complete(why, 0, {});
  }
  if (!failed.empty() && !destroyed_.load(std::memory_order_acquire)) {
    WNW_LOG(kDebug) << "remote(" << addr_ << "): failed " << failed.size()
                    << " in-flight calls: " << why.ToString();
  }
}

void RemoteBackend::TimeoutCall(Conn* conn, uint64_t request_id) {
  PendingCall call;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    const auto it = conn->pending.find(request_id);
    if (it == conn->pending.end()) return;  // reply won the race
    call = std::move(it->second);
    conn->pending.erase(it);
  }
  // The connection stays up: a late reply is dropped by the unknown-id
  // path, and pipelined successors are still demultiplexed correctly.
  call.complete(
      Status::DeadlineExceeded(
          "remote request " + std::to_string(request_id) + " to '" + addr_ +
          "' missed its " + std::to_string(options_.deadline_ms) +
          "ms deadline"),
      0, {});
}

}  // namespace wnw
