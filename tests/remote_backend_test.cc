// RemoteBackend tests: the acceptance gate (every registered sampler draws
// byte-identical samples at identical query cost against a loopback
// wnw server vs the in-process origin), failure paths (dead server at
// connect, server killed mid-run, deadline expiry against a mute peer →
// bounded retries, then Unavailable/DeadlineExceeded; a server restarted
// within the retry budget is reached by blocking and callback calls alike),
// the session-stats remote telemetry, and the spec-string conflict matrix.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "access/remote_backend.h"
#include "core/session.h"
#include "engine/walk_engine.h"
#include "net/server.h"
#include "test_util.h"

namespace wnw {
namespace {

RemoteBackendOptions FastFail() {
  RemoteBackendOptions options;
  options.connections = 1;
  options.deadline_ms = 200.0;
  options.max_retries = 1;
  options.retry_backoff_ms = 1.0;
  options.connect_timeout_ms = 300.0;
  return options;
}

// A bound-then-closed ephemeral port: nothing listens there afterwards, so
// connects fail fast with ECONNREFUSED instead of a firewall-style hang.
int ClosedPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

// A listener that accepts and then never answers: the deadline, not the
// connect, is what expires.
class MuteListener {
 public:
  MuteListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 8), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  ~MuteListener() { ::close(fd_); }
  int port() const { return port_; }

 private:
  int fd_ = -1;
  int port_ = 0;
};

std::string Addr(int port) {
  return "127.0.0.1:" + std::to_string(port);
}

// FetchNeighborsCompletion with the caller blocked on its callback.
Result<FetchReply> FetchByCallback(RemoteBackend& remote, NodeId u) {
  auto reply = std::make_shared<std::promise<Result<FetchReply>>>();
  auto future = reply->get_future();
  remote.FetchNeighborsCompletion(u, [reply](Result<FetchReply> result) {
    reply->set_value(std::move(result));
  });
  return future.get();
}

class RemoteBackendTest : public ::testing::Test {
 protected:
  void StartServer(AccessOptions options = {}) {
    graph_ = testing::MakeTestBA(80, 3, 5);
    backend_ = std::make_shared<InMemoryBackend>(&graph_, options);
    net::ServerOptions server_options;
    server_options.threads = 2;
    auto server = net::WnwServer::Start(backend_, server_options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  // Shuts the server down, then brings a fresh one up on the same port
  // about 100 ms into `fetch`, whose first attempt fails and whose one
  // retry waits 300 ms: the retry must reconnect to the restarted server.
  void ExpectRetryReachesRestartedServer(
      const std::function<Result<FetchReply>(RemoteBackend&, NodeId)>&
          fetch) {
    StartServer();
    RemoteBackendOptions options = FastFail();
    options.retry_backoff_ms = 300.0;
    auto remote = RemoteBackend::Connect(Addr(server_->port()), options);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    ASSERT_TRUE((*remote)->FetchNeighbors(0).ok());

    const int port = server_->port();
    server_->Shutdown();
    std::unique_ptr<net::WnwServer> restarted;
    std::thread restart([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      net::ServerOptions server_options;
      server_options.threads = 2;
      server_options.port = port;
      auto started = net::WnwServer::Start(backend_, server_options);
      if (started.ok()) restarted = std::move(started).value();
    });
    auto reply = fetch(**remote, 5);
    restart.join();
    ASSERT_NE(restarted, nullptr) << "could not restart on port " << port;
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->TakeNeighbors(), testing::ToVec(graph_.Neighbors(5)));
    EXPECT_GE((*remote)->retries(), 1u);
  }

  Graph graph_;
  std::shared_ptr<InMemoryBackend> backend_;
  std::unique_ptr<net::WnwServer> server_;
};

TEST_F(RemoteBackendTest, HandshakeMirrorsServerScenario) {
  AccessOptions access;
  access.restriction = NeighborRestriction::kFixedSubset;
  access.max_neighbors = 4;
  access.seed = 99;
  StartServer(access);
  auto remote = RemoteBackend::Connect(Addr(server_->port()), FastFail());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ((*remote)->num_nodes(), graph_.num_nodes());
  EXPECT_EQ((*remote)->options().restriction,
            NeighborRestriction::kFixedSubset);
  EXPECT_EQ((*remote)->options().max_neighbors, 4u);
  EXPECT_EQ((*remote)->options().seed, 99u);
  EXPECT_EQ((*remote)->origin_name(), "memory");
  EXPECT_EQ((*remote)->origin_shards(), 0);
  EXPECT_TRUE((*remote)->deterministic());
}

TEST_F(RemoteBackendTest, FetchesMatchLocalBackendExactly) {
  StartServer();
  auto remote = RemoteBackend::Connect(Addr(server_->port()), FastFail());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  for (NodeId u = 0; u < graph_.num_nodes(); u += 7) {
    auto reply = (*remote)->FetchNeighbors(u);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->TakeNeighbors(), testing::ToVec(graph_.Neighbors(u)));
    EXPECT_EQ(reply->simulated_seconds, 0.0);
  }
  auto batch = (*remote)->FetchBatch(std::vector<NodeId>{3, 1, 3, 40});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->lists.size(), 4u);
  EXPECT_EQ(batch->lists[3], testing::ToVec(graph_.Neighbors(40)));
}

TEST_F(RemoteBackendTest, ServerSideErrorsArriveVerbatimAndUnretried) {
  StartServer();
  auto remote = RemoteBackend::Connect(Addr(server_->port()), FastFail());
  ASSERT_TRUE(remote.ok());
  const uint64_t rpcs_before = (*remote)->rpcs();
  const NodeId bad = static_cast<NodeId>(graph_.num_nodes() + 1);
  auto reply = (*remote)->FetchNeighbors(bad);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kOutOfRange);
  // A semantic error is not transient: exactly one round trip, no retries.
  EXPECT_EQ((*remote)->rpcs(), rpcs_before + 1);
  EXPECT_EQ((*remote)->retries(), 0u);

  // The callback call is the same RPC: one round trip, failed or not.
  auto by_callback = FetchByCallback(**remote, bad);
  ASSERT_FALSE(by_callback.ok());
  EXPECT_EQ(by_callback.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ((*remote)->rpcs(), rpcs_before + 2);
  EXPECT_EQ((*remote)->retries(), 0u);
  ASSERT_TRUE((*remote)->FetchNeighbors(1).ok());
  EXPECT_EQ((*remote)->rpcs(), rpcs_before + 3);
  ASSERT_TRUE(FetchByCallback(**remote, 2).ok());
  EXPECT_EQ((*remote)->rpcs(), rpcs_before + 4);
}

TEST(RemoteBackendFailureTest, DeadServerAtConnectIsUnavailable) {
  auto remote = RemoteBackend::Connect(Addr(ClosedPort()), FastFail());
  ASSERT_FALSE(remote.ok());
  EXPECT_EQ(remote.status().code(), StatusCode::kUnavailable);
}

TEST(RemoteBackendFailureTest, MalformedAddressIsInvalidArgument) {
  for (const char* addr :
       {"nocolon", ":123", "1.2.3.4:", "1.2.3.4:notaport", "1.2.3.4:70000"}) {
    auto remote = RemoteBackend::Connect(addr, FastFail());
    ASSERT_FALSE(remote.ok()) << addr;
    EXPECT_EQ(remote.status().code(), StatusCode::kInvalidArgument) << addr;
  }
}

TEST(RemoteBackendFailureTest, MuteServerMissesDeadline) {
  MuteListener mute;
  RemoteBackendOptions options = FastFail();
  options.deadline_ms = 100.0;
  options.max_retries = 2;
  // The handshake itself times out: three attempts (1 + 2 retries), then
  // DeadlineExceeded surfaces to the caller.
  auto remote = RemoteBackend::Connect(Addr(mute.port()), options);
  ASSERT_FALSE(remote.ok());
  EXPECT_EQ(remote.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(RemoteBackendTest, ServerKilledMidRunFailsBoundedThenUnavailable) {
  StartServer();
  auto remote = RemoteBackend::Connect(Addr(server_->port()), FastFail());
  ASSERT_TRUE(remote.ok());
  ASSERT_TRUE((*remote)->FetchNeighbors(0).ok());

  server_->Shutdown();
  auto reply = (*remote)->FetchBatch(std::vector<NodeId>{1, 2, 3});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  EXPECT_GE((*remote)->retries(), 1u);  // it did retry before giving up
}

TEST_F(RemoteBackendTest, BlockingRetryReachesRestartedServer) {
  ExpectRetryReachesRestartedServer([](RemoteBackend& remote, NodeId u) {
    return remote.FetchNeighbors(u);
  });
}

TEST_F(RemoteBackendTest, CallbackRetryReachesRestartedServer) {
  ExpectRetryReachesRestartedServer(FetchByCallback);
}

// --- the acceptance gate -----------------------------------------------------

struct SamplerCase {
  std::string spec;
  AccessOptions access;
};

std::vector<SamplerCase> AcceptanceCases() {
  AccessOptions fixed_subset;
  fixed_subset.restriction = NeighborRestriction::kFixedSubset;
  fixed_subset.max_neighbors = 3;
  fixed_subset.seed = 31;
  return {
      {"burnin:mhrw", {}},
      {"longrun:srw?thinning=2", {}},
      {"we:mhrw?diameter=6", {}},
      {"we-path:mhrw?diameter=6", {}},
      {"we:mhrw?diameter=6&window=4", {}},  // async executor over remote
      {"burnin:mhrw", fixed_subset},        // §6.3.1 restriction server-side
      {"walk:srw?steps=6", {}},             // fixed-length chain
  };
}

TEST_F(RemoteBackendTest, EveryRegisteredSamplerDrawsIdenticalSamples) {
  // The registry's families must all be exercised; if someone registers a
  // new sampler, this test reminds them to add an acceptance case.
  std::vector<std::string> families;
  for (const SamplerCase& c : AcceptanceCases()) {
    families.push_back(c.spec.substr(0, c.spec.find(':')));
  }
  for (const std::string& name : SamplerRegistry::Global().Names()) {
    EXPECT_NE(std::find(families.begin(), families.end(), name),
              families.end())
        << "sampler '" << name << "' has no remote acceptance case";
  }

  for (const SamplerCase& test_case : AcceptanceCases()) {
    // Fresh server per case: restriction randomness is served-state, and
    // both sides must observe the same per-node call sequences.
    graph_ = testing::MakeTestBA(80, 3, 5);
    backend_ = std::make_shared<InMemoryBackend>(&graph_, test_case.access);
    auto started = net::WnwServer::Start(backend_, {.threads = 2});
    ASSERT_TRUE(started.ok());
    server_ = std::move(started).value();

    SessionOptions local_options;
    local_options.access = test_case.access;
    local_options.seed = 77;
    auto local = SamplingSession::Open(&graph_, test_case.spec, local_options);
    ASSERT_TRUE(local.ok()) << test_case.spec << ": "
                            << local.status().ToString();
    std::vector<NodeId> local_samples;
    ASSERT_TRUE((*local)->DrawInto(&local_samples, 25).ok());
    const SessionStats local_stats = (*local)->Stats();

    SessionOptions remote_options;
    remote_options.seed = 77;
    remote_options.remote = FastFail();
    const std::string remote_spec =
        test_case.spec +
        (test_case.spec.find('?') == std::string::npos ? "?" : "&") +
        "backend=remote&addr=" + Addr(server_->port());
    auto remote = SamplingSession::Open(&graph_, remote_spec, remote_options);
    ASSERT_TRUE(remote.ok()) << remote_spec << ": "
                             << remote.status().ToString();
    std::vector<NodeId> remote_samples;
    ASSERT_TRUE((*remote)->DrawInto(&remote_samples, 25).ok());
    const SessionStats remote_stats = (*remote)->Stats();

    // Byte-identical samples at identical query cost.
    EXPECT_EQ(remote_samples, local_samples) << test_case.spec;
    EXPECT_EQ(remote_stats.query_cost, local_stats.query_cost)
        << test_case.spec;
    EXPECT_EQ(remote_stats.total_queries, local_stats.total_queries)
        << test_case.spec;
    EXPECT_EQ(remote_stats.waited_seconds, local_stats.waited_seconds)
        << test_case.spec;

    // And the remote telemetry is live.
    EXPECT_EQ(remote_stats.remote_addr, Addr(server_->port()));
    EXPECT_GT(remote_stats.remote_rpcs, 0u) << test_case.spec;
    EXPECT_GT(remote_stats.remote_bytes, 0u) << test_case.spec;
    EXPECT_EQ(local_stats.remote_addr, "");
    EXPECT_EQ(local_stats.remote_rpcs, 0u);
  }
}

TEST_F(RemoteBackendTest, EngineOverRemoteMatchesInProcessForEverySampler) {
  // The engine half of the acceptance gate: RunWalkEngine over a loopback
  // wnw server must be byte-identical — per walker, at identical logical
  // query cost — to the same engine run against the in-process origin, for
  // every registered sampler. The window on the remote side routes the
  // engine's fetches through the completion executor, so this is also the
  // completion-dispatch identity check.
  std::vector<std::string> families;
  for (const SamplerCase& c : AcceptanceCases()) {
    families.push_back(c.spec.substr(0, c.spec.find(':')));
  }
  for (const std::string& name : SamplerRegistry::Global().Names()) {
    EXPECT_NE(std::find(families.begin(), families.end(), name),
              families.end())
        << "sampler '" << name << "' has no engine-over-remote case";
  }

  constexpr uint64_t kWalkers = 4;
  constexpr uint64_t kSamples = 3;
  for (const SamplerCase& test_case : AcceptanceCases()) {
    graph_ = testing::MakeTestBA(80, 3, 5);
    backend_ = std::make_shared<InMemoryBackend>(&graph_, test_case.access);
    auto started = net::WnwServer::Start(backend_, {.threads = 2});
    ASSERT_TRUE(started.ok());
    server_ = std::move(started).value();

    EngineOptions local_options;
    local_options.walkers = kWalkers;
    local_options.samples_per_walker = kSamples;
    local_options.session.access = test_case.access;
    local_options.session.seed = 77;
    const auto local = RunWalkEngine(&graph_, test_case.spec, local_options);
    ASSERT_TRUE(local.ok()) << test_case.spec << ": "
                            << local.status().ToString();

    EngineOptions remote_options;
    remote_options.walkers = kWalkers;
    remote_options.samples_per_walker = kSamples;
    remote_options.session.seed = 77;
    remote_options.session.remote = FastFail();
    const std::string remote_spec =
        test_case.spec +
        (test_case.spec.find('?') == std::string::npos ? "?" : "&") +
        "backend=remote&addr=" + Addr(server_->port());
    const auto remote = RunWalkEngine(&graph_, remote_spec, remote_options);
    ASSERT_TRUE(remote.ok()) << remote_spec << ": "
                             << remote.status().ToString();

    for (size_t w = 0; w < kWalkers; ++w) {
      EXPECT_EQ(testing::ToVec(remote->SamplesFor(w)),
                testing::ToVec(local->SamplesFor(w)))
          << test_case.spec << " walker " << w;
      EXPECT_EQ(remote->walker_stats[w].query_cost,
                local->walker_stats[w].query_cost)
          << test_case.spec << " walker " << w;
      EXPECT_EQ(remote->walker_stats[w].total_queries,
                local->walker_stats[w].total_queries)
          << test_case.spec << " walker " << w;
    }
  }
}

TEST_F(RemoteBackendTest, SpecConflictMatrix) {
  StartServer();
  const std::string addr = Addr(server_->port());
  const std::pair<std::string, std::string> cases[] = {
      {"burnin:mhrw?backend=remote", "requires addr"},
      {"burnin:mhrw?addr=" + addr, "require backend=remote"},
      {"burnin:mhrw?deadline_ms=100", "require backend=remote"},
      {"burnin:mhrw?backend=remote&addr=" + addr + "&snapshot=/tmp/x.snap",
       "contradicts snapshot"},
      {"burnin:mhrw?backend=remote&addr=" + addr + "&shards=2",
       "contradicts shards"},
      {"burnin:mhrw?backend=remote&addr=" + addr + "&mean_ms=10",
       "latency parameters"},
      {"burnin:mhrw?backend=memory&addr=" + addr, "require backend=remote"},
      {"burnin:mhrw?snapshot_verify=off", "requires a snapshot"},
  };
  for (const auto& [spec, why] : cases) {
    auto session = SamplingSession::Open(&graph_, spec);
    ASSERT_FALSE(session.ok()) << spec << " should conflict: " << why;
    EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument) << spec;
  }

  // An explicit backend plus a remote spec is a loud conflict too.
  SessionOptions with_backend;
  with_backend.backend = backend_;
  auto session = SamplingSession::Open(
      &graph_, "burnin:mhrw?backend=remote&addr=" + addr, with_backend);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RemoteBackendTest, WrongGraphNodeCountIsRejected) {
  StartServer();  // serves an 80-node graph
  const Graph other = testing::MakeTestBA(40, 3, 9);
  auto session = SamplingSession::Open(
      &other,
      "burnin:mhrw?backend=remote&addr=" + Addr(server_->port()));
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(session.status().message().find("serves"), std::string::npos);
}

TEST_F(RemoteBackendTest, FetchServerCountersAdvance) {
  StartServer();
  auto remote = RemoteBackend::Connect(Addr(server_->port()), FastFail());
  ASSERT_TRUE(remote.ok());
  auto before = (*remote)->FetchServerCounters();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE((*remote)->FetchNeighbors(1).ok());
  auto after = (*remote)->FetchServerCounters();
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->requests_served, before->requests_served);
  EXPECT_GE(after->connections_accepted, 1u);
}

}  // namespace
}  // namespace wnw
