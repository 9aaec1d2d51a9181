// loadgen_remote: saturation bench for the wnw_serve service tier.
//
// Drives a wnw server over loopback with an asynchronous pipelined client —
// ONE client thread multiplexing every connection on its own EventLoop, so
// holding 512 requests in flight costs 512 pending frames, not 512 threads.
// For each concurrency level it issues --requests FetchNeighbors calls with
// exactly L in flight (each completion immediately issues the next), then
// prints a QPS vs latency-percentile saturation table:
//
//   in_flight   requests   elapsed_s        qps    p50_us    p99_us    max_us   threads
//          16      20000       0.61       32951      412       1190      2201         4
//         512      20000       0.52       38231     12104     16533     21012         4
//
// Percentiles are nearest-rank over the sorted sample; `threads` is the
// process's live OS thread peak (/proc/self/task) — the number that must
// NOT scale with in_flight.
//
// By default it embeds the server in-process (InMemoryBackend over a BA
// graph, reactor pool sized by --server-threads); --addr drives an external
// wnw_serve instead. Total threads stay <= 2 x cores either way: the
// client's reactor is 1 thread and the server's pool is fixed at startup.
//
// Usage:
//   loadgen_remote [--dataset ba:N,M] [--requests N] [--levels 16,128,512]
//                  [--connections K] [--server-threads N] [--addr HOST:PORT]
//                  [--seed S]
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "access/backend.h"
#include "datasets/social_datasets.h"
#include "net/event_loop.h"
#include "net/server.h"
#include "net/wire.h"
#include "random/rng.h"
#include "util/string_util.h"
#include "util/thread_stats.h"

namespace {

using namespace wnw;

struct Args {
  std::string dataset = "ba:50000,5";
  std::string addr;  // empty = embed the server in-process
  std::string levels = "16,128,512";
  uint64_t requests = 20000;
  uint64_t connections = 8;
  uint64_t server_threads = 0;  // 0 = ServerOptions default
  uint64_t seed = 20260808;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = next();
    if (v == nullptr) return false;
    if (flag == "--dataset") {
      args->dataset = v;
    } else if (flag == "--addr") {
      args->addr = v;
    } else if (flag == "--levels") {
      args->levels = v;
    } else if (flag == "--requests") {
      if (!ParseUint64(v, &args->requests) || args->requests == 0)
        return false;
    } else if (flag == "--connections") {
      if (!ParseUint64(v, &args->connections) || args->connections == 0 ||
          args->connections > 64)
        return false;
    } else if (flag == "--server-threads") {
      if (!ParseUint64(v, &args->server_threads)) return false;
    } else if (flag == "--seed") {
      if (!ParseUint64(v, &args->seed)) return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", std::string(flag).c_str());
      return false;
    }
  }
  return true;
}

// One pipelined client connection; every field is loop-affine.
struct ClientConn {
  int fd = -1;
  std::vector<std::byte> in;
  std::vector<std::byte> out;
  size_t out_pos = 0;
  bool want_write = false;
};

/// The asynchronous driver for one concurrency level. Lives on the loop
/// thread end to end; the main thread only waits on `done`.
class LevelDriver {
 public:
  LevelDriver(net::EventLoop* loop, std::vector<ClientConn>* conns,
              std::span<const NodeId> nodes)
      : loop_(loop), conns_(conns), nodes_(nodes) {}

  // Returns per-request latencies (seconds) and fills *elapsed.
  std::vector<double> Run(size_t in_flight, double* elapsed) {
    latencies_.clear();
    latencies_.reserve(nodes_.size());
    issued_ = completed_ = 0;
    done_ = false;
    loop_->Post([this, in_flight] {
      start_time_ = loop_->NowSeconds();
      const size_t first = std::min(in_flight, nodes_.size());
      for (size_t i = 0; i < first; ++i) {
        Issue(&(*conns_)[i % conns_->size()]);
      }
      for (auto& conn : *conns_) Flush(&conn);
    });
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return done_; });
    *elapsed = end_time_ - start_time_;
    return std::move(latencies_);
  }

  void OnIo(ClientConn* conn, uint32_t events) {
    if (events & net::kEventWrite) Flush(conn);
    if ((events & net::kEventRead) == 0) return;
    char buf[64 * 1024];
    while (conn->fd >= 0) {
      const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        const std::byte* bytes = reinterpret_cast<const std::byte*>(buf);
        conn->in.insert(conn->in.end(), bytes, bytes + n);
        if (n < static_cast<ssize_t>(sizeof(buf))) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      Die(n == 0 ? "server closed the connection" : std::strerror(errno));
    }
    size_t consumed = 0;
    while (consumed < conn->in.size()) {
      net::DecodedFrame frame;
      auto taken = net::DecodeFrame(
          std::span<const std::byte>(conn->in).subspan(consumed), &frame);
      if (!taken.ok()) Die(taken.status().ToString().c_str());
      if (*taken == 0) break;
      consumed += *taken;
      if (frame.status != StatusCode::kOk) Die("error response from server");
      const auto it = starts_.find(frame.request_id);
      if (it == starts_.end()) Die("unknown request id in response");
      const double now = loop_->NowSeconds();
      latencies_.push_back(now - it->second);
      starts_.erase(it);
      ++completed_;
      if (issued_ < nodes_.size()) {
        Issue(conn);
        Flush(conn);
      } else if (completed_ == nodes_.size()) {
        end_time_ = now;
        {
          std::lock_guard<std::mutex> lock(mu_);
          done_ = true;
        }
        cv_.notify_all();
      }
    }
    if (consumed > 0) {
      conn->in.erase(conn->in.begin(),
                     conn->in.begin() + static_cast<ptrdiff_t>(consumed));
    }
  }

 private:
  [[noreturn]] void Die(const char* why) {
    std::fprintf(stderr, "loadgen: fatal: %s\n", why);
    std::exit(1);
  }

  void Issue(ClientConn* conn) {
    const uint64_t id = next_id_++;
    std::vector<std::byte> payload;
    net::EncodeFetchRequest(nodes_[issued_], &payload);
    ++issued_;
    net::Frame frame;
    frame.opcode = net::Opcode::kFetchNeighbors;
    frame.request_id = id;
    frame.payload = payload;
    net::EncodeFrame(frame, &conn->out);
    starts_[id] = loop_->NowSeconds();
  }

  void Flush(ClientConn* conn) {
    while (conn->out_pos < conn->out.size()) {
      const ssize_t n =
          ::send(conn->fd, conn->out.data() + conn->out_pos,
                 conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn->want_write) {
          conn->want_write = true;
          (void)loop_->Modify(conn->fd, net::kEventRead | net::kEventWrite);
        }
        return;
      }
      Die(std::strerror(errno));
    }
    conn->out.clear();
    conn->out_pos = 0;
    if (conn->want_write) {
      conn->want_write = false;
      (void)loop_->Modify(conn->fd, net::kEventRead);
    }
  }

  net::EventLoop* loop_;
  std::vector<ClientConn>* conns_;
  std::span<const NodeId> nodes_;

  uint64_t next_id_ = 1;
  size_t issued_ = 0;
  size_t completed_ = 0;
  double start_time_ = 0.0;
  double end_time_ = 0.0;
  std::unordered_map<uint64_t, double> starts_;
  std::vector<double> latencies_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
};

int ConnectBlocking(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &dst.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&dst), sizeof(dst)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Nearest-rank percentile over an ascending-sorted sample: the smallest
/// value with at least ceil(p*N) observations at or below it. The naive
/// `p * (N-1)` index truncates downward — at N=20000 it reports p99 as the
/// 19800th order statistic instead of the 19900th, flattering the tail by
/// a full 0.5%.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const size_t idx = rank <= 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: loadgen_remote [--dataset ba:N,M] [--requests N]\n"
                 "                      [--levels 16,128,512] "
                 "[--connections K]\n"
                 "                      [--server-threads N] [--addr H:P] "
                 "[--seed S]\n");
    return 2;
  }

  // Embedded server (unless --addr points elsewhere).
  std::unique_ptr<net::WnwServer> server;
  std::string host = "127.0.0.1";
  int port = 0;
  uint64_t num_nodes = 0;
  Graph graph;
  if (args.addr.empty()) {
    const Result<DatasetSpec> spec = ParseDatasetSpec(args.dataset);
    if (!spec.ok() || spec->kind != DatasetSpec::Kind::kBarabasiAlbert) {
      std::fprintf(stderr, "loadgen: --dataset must be ba:N,M\n");
      return 2;
    }
    auto generated = spec->Build(args.seed);
    if (!generated.ok()) {
      std::fprintf(stderr, "loadgen: %s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    graph = std::move(generated).value();
    num_nodes = graph.num_nodes();
    auto backend = std::make_shared<InMemoryBackend>(&graph);
    net::ServerOptions options;
    options.threads = static_cast<int>(args.server_threads);
    auto started = net::WnwServer::Start(backend, options);
    if (!started.ok()) {
      std::fprintf(stderr, "loadgen: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    server = std::move(started).value();
    port = server->port();
    std::fprintf(stderr,
                 "loadgen: embedded server — %llu nodes, %d reactor "
                 "threads, port %d\n",
                 static_cast<unsigned long long>(num_nodes),
                 server->threads(), port);
  } else {
    const size_t colon = args.addr.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "loadgen: --addr must be host:port\n");
      return 2;
    }
    host = args.addr.substr(0, colon);
    if (host == "localhost") host = "127.0.0.1";
    uint64_t parsed_port = 0;
    if (!ParseUint64(args.addr.substr(colon + 1), &parsed_port) ||
        parsed_port > 65535) {
      std::fprintf(stderr, "loadgen: --addr must be host:port\n");
      return 2;
    }
    port = static_cast<int>(parsed_port);
  }

  // Client reactor: ONE thread for every connection and every level.
  auto loop_or = net::EventLoop::Create();
  if (!loop_or.ok()) {
    std::fprintf(stderr, "loadgen: %s\n",
                 loop_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<net::EventLoop> loop = std::move(loop_or).value();

  std::vector<ClientConn> conns(args.connections);
  for (auto& conn : conns) {
    conn.fd = ConnectBlocking(host, port);
    if (conn.fd < 0) {
      std::fprintf(stderr, "loadgen: cannot connect to %s:%d\n",
                   host.c_str(), port);
      return 1;
    }
  }

  // External server: learn the node-id domain from the Stats handshake.
  if (num_nodes == 0) {
    std::vector<std::byte> payload;
    net::Frame request;
    request.opcode = net::Opcode::kStats;
    request.request_id = 1;
    std::vector<std::byte> wire;
    net::EncodeFrame(request, &wire);
    size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(conns[0].fd, wire.data() + sent,
                               wire.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        std::fprintf(stderr, "loadgen: handshake send failed\n");
        return 1;
      }
      sent += static_cast<size_t>(n);
    }
    std::vector<std::byte> in;
    net::DecodedFrame frame;
    while (true) {
      auto taken = net::DecodeFrame(in, &frame);
      if (!taken.ok()) {
        std::fprintf(stderr, "loadgen: %s\n",
                     taken.status().ToString().c_str());
        return 1;
      }
      if (*taken > 0) break;
      char buf[4096];
      const ssize_t n = ::recv(conns[0].fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        std::fprintf(stderr, "loadgen: handshake recv failed\n");
        return 1;
      }
      const std::byte* bytes = reinterpret_cast<const std::byte*>(buf);
      in.insert(in.end(), bytes, bytes + n);
    }
    auto stats = net::DecodeStatsReply(frame.payload);
    if (!stats.ok() || stats->num_nodes == 0) {
      std::fprintf(stderr, "loadgen: bad Stats handshake\n");
      return 1;
    }
    num_nodes = stats->num_nodes;
    std::fprintf(stderr, "loadgen: external server %s:%d — %llu nodes\n",
                 host.c_str(), port,
                 static_cast<unsigned long long>(num_nodes));
  }

  // Register the (now non-blocking) connections and start the reactor.
  std::vector<NodeId> nodes(args.requests);
  Rng rng(args.seed ^ 0x10adull);
  for (auto& node : nodes) {
    node = static_cast<NodeId>(rng.NextBounded(num_nodes));
  }
  LevelDriver driver(loop.get(), &conns, nodes);
  for (auto& conn : conns) {
    const int flags = ::fcntl(conn.fd, F_GETFL, 0);
    ::fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK);
    ClientConn* raw = &conn;
    const Status added =
        loop->Add(conn.fd, net::kEventRead,
                  [&driver, raw](uint32_t events) { driver.OnIo(raw, events); });
    if (!added.ok()) {
      std::fprintf(stderr, "loadgen: %s\n", added.ToString().c_str());
      return 1;
    }
  }
  std::thread loop_thread([&loop] { loop->Run(); });

  std::vector<uint64_t> levels;
  for (const auto level : SplitString(args.levels, ",")) {
    uint64_t parsed = 0;
    if (!ParseUint64(level, &parsed) || parsed == 0) {
      std::fprintf(stderr, "loadgen: bad --levels entry '%s'\n",
                   std::string(level).c_str());
      return 2;
    }
    levels.push_back(parsed);
  }

  // Thread peak is the point of the architecture: 512 in flight must not
  // mean 512 threads. Sampled per level from /proc (client reactor + the
  // embedded server's fixed pool; both persist, so an end-of-level sample
  // is the peak).
  int thread_peak = CountProcessThreads();
  std::printf("%10s %10s %10s %10s %9s %9s %9s %9s %8s\n", "in_flight",
              "requests", "elapsed_s", "qps", "p50_us", "p90_us", "p99_us",
              "max_us", "threads");
  for (const uint64_t level : levels) {
    double elapsed = 0.0;
    std::vector<double> latencies =
        driver.Run(static_cast<size_t>(level), &elapsed);
    std::sort(latencies.begin(), latencies.end());
    const double qps =
        elapsed > 0.0 ? static_cast<double>(latencies.size()) / elapsed : 0.0;
    thread_peak = std::max(thread_peak, CountProcessThreads());
    std::printf("%10llu %10zu %10.3f %10.0f %9.0f %9.0f %9.0f %9.0f %8d\n",
                static_cast<unsigned long long>(level), latencies.size(),
                elapsed, qps, Percentile(latencies, 0.50) * 1e6,
                Percentile(latencies, 0.90) * 1e6,
                Percentile(latencies, 0.99) * 1e6,
                latencies.empty() ? 0.0 : latencies.back() * 1e6,
                thread_peak);
  }

  loop->Stop();
  loop_thread.join();
  for (auto& conn : conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  return 0;
}
