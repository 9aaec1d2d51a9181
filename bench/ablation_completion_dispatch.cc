// Completion-dispatch ablation + acceptance gate: the promise PR 8 makes
// — a window of in-flight remote requests costs pending frames, not parked
// threads — checked against the thread-pool dispatch it replaced, over a
// REAL loopback wnw server in a forked child process (so the parent's
// /proc/self/task count measures only the client side: main thread, the
// RemoteBackend event loop, and whatever the executor spawns).
//
//   identity — for every registered sampler family, RunWalkEngine over the
//     remote backend must emit byte-identical per-walker samples at
//     identical logical query cost under BOTH dispatch modes, and both
//     must match the in-process run. A dispatcher that changes the
//     estimator is wrong, not fast.
//
//   threads — with 512 fetches in flight under completion dispatch, the
//     process's live OS thread count must stay <= cores + 4. This is the
//     whole point: the old dispatch parked one worker per window slot.
//
//   wall-clock — at each window in {64, 512}, completion dispatch must
//     match or beat thread-pool dispatch (best of WNW_TRIALS runs each,
//     with WNW_TOLERANCE slack, default 1.10): fewer threads may not cost
//     throughput.
//
// Exits nonzero on any violation. Env: WNW_TRIALS, WNW_SEED, WNW_SCALE
// (scales the graph and the request count), WNW_TOLERANCE, WNW_BENCH_JSON
// (when set, writes the sweep as JSON for the CI artifact).
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "access/backend.h"
#include "access/completion_executor.h"
#include "access/remote_backend.h"
#include "core/registry.h"
#include "engine/walk_engine.h"
#include "experiments/harness.h"
#include "graph/generators.h"
#include "net/server.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_stats.h"

namespace {

using namespace wnw;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The served graph is rebuilt from (seed, n, m) on both sides of the
/// fork, so the parent's in-process identity runs walk the exact graph the
/// child serves without shipping it across.
Result<Graph> BuildGraph(uint64_t seed, NodeId n, uint32_t m) {
  Rng rng(seed);
  return MakeBarabasiAlbert(n, m, rng);
}

struct ServerChild {
  pid_t pid = -1;
  int port = 0;
};

/// Forks FIRST — before this process owns any threads — and stands the
/// server up in the child: its reactor pool, accept loop, and backend
/// never appear in the parent's /proc/self/task, so the thread gate
/// measures the client architecture and nothing else.
bool StartServerChild(uint64_t seed, NodeId n, uint32_t m,
                      ServerChild* child) {
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("pipe");
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    auto graph = BuildGraph(seed, n, m);
    if (!graph.ok()) ::_exit(3);
    auto backend = std::make_shared<InMemoryBackend>(&*graph);
    auto server = net::WnwServer::Start(backend, {.threads = 2});
    if (!server.ok()) ::_exit(3);
    const int port = (*server)->port();
    if (::write(fds[1], &port, sizeof(port)) != sizeof(port)) ::_exit(3);
    ::close(fds[1]);
    for (;;) ::pause();  // parent SIGKILLs us when done
  }
  ::close(fds[1]);
  const bool got = ::read(fds[0], &child->port, sizeof(child->port)) ==
                   sizeof(child->port);
  ::close(fds[0]);
  child->pid = pid;
  if (!got) {
    std::fprintf(stderr, "GATE: server child died before reporting a port\n");
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return false;
  }
  return true;
}

void StopServerChild(const ServerChild& child) {
  if (child.pid <= 0) return;
  ::kill(child.pid, SIGKILL);
  ::waitpid(child.pid, nullptr, 0);
}

RemoteBackendOptions ClientOptions() {
  RemoteBackendOptions options;
  options.connections = 2;
  options.deadline_ms = 10000.0;
  options.max_retries = 2;
  options.retry_backoff_ms = 10.0;
  options.connect_timeout_ms = 2000.0;
  return options;
}

/// The thread-pool dispatch baseline, kept here rather than in the
/// executor: a pass-through decorator that hides the remote client's
/// completion path. The executor then runs every fetch on a pool worker
/// parked in the blocking call, and because the decorator reports
/// may_block() it sizes that pool at the window — one thread per in-flight
/// request, the dispatch completion replaced.
class ThreadDispatchBackend final : public AccessBackend {
 public:
  explicit ThreadDispatchBackend(std::shared_ptr<RemoteBackend> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  uint64_t num_nodes() const override { return inner_->num_nodes(); }
  const AccessOptions& options() const override { return inner_->options(); }
  const RemoteBackend* AsRemote() const override { return inner_.get(); }
  bool may_block() const override { return true; }
  Result<FetchReply> FetchNeighbors(NodeId u) override {
    return inner_->FetchNeighbors(u);
  }
  Result<BatchReply> FetchBatch(std::span<const NodeId> nodes) override {
    return inner_->FetchBatch(nodes);
  }

 private:
  std::shared_ptr<RemoteBackend> inner_;
};

struct IdentityCase {
  const char* family;  // registry name, for coverage accounting
  const char* spec;
};

// One spec per registered sampler family; the coverage check below fails
// the gate if the registry grows a family this table misses.
constexpr IdentityCase kIdentityCases[] = {
    {"walk", "walk:srw?steps=6"},
    {"burnin", "burnin:mhrw?max_steps=400"},
    {"longrun", "longrun:lazy?thinning=3&max_steps=400"},
    {"we", "we:mhrw?diameter=3"},
    {"we-path", "we-path:srw?diameter=3"},
};

constexpr const char* kDispatchModes[] = {"completion", "threads"};

/// Gate 1: in-process vs remote-completion vs remote-threads, per family.
bool RunIdentityGate(const Graph& graph, const std::string& addr,
                     uint64_t seed) {
  bool ok = true;
  std::vector<std::string> families;
  for (const IdentityCase& c : kIdentityCases) families.push_back(c.family);
  for (const std::string& name : SamplerRegistry::Global().Names()) {
    if (std::find(families.begin(), families.end(), name) == families.end()) {
      std::fprintf(stderr,
                   "GATE: sampler family '%s' has no identity case\n",
                   name.c_str());
      ok = false;
    }
  }

  constexpr uint64_t kWalkers = 4;
  constexpr uint64_t kSamples = 3;
  int runs = 0;
  for (const IdentityCase& c : kIdentityCases) {
    EngineOptions local_options;
    local_options.walkers = kWalkers;
    local_options.samples_per_walker = kSamples;
    local_options.session.seed = seed;
    const auto local = RunWalkEngine(&graph, c.spec, local_options);
    if (!local.ok()) {
      std::fprintf(stderr, "GATE: local run failed for %s: %s\n", c.spec,
                   local.status().ToString().c_str());
      ok = false;
      continue;
    }

    for (const char* dispatch : kDispatchModes) {
      EngineOptions remote_options;
      remote_options.walkers = kWalkers;
      remote_options.samples_per_walker = kSamples;
      remote_options.session.seed = seed;
      const char sep =
          std::string_view(c.spec).find('?') == std::string_view::npos ? '?'
                                                                       : '&';
      std::string spec;
      if (dispatch == std::string_view("completion")) {
        remote_options.session.remote = ClientOptions();
        spec = StrFormat("%s%cbackend=remote&addr=%s&window=8", c.spec, sep,
                         addr.c_str());
      } else {
        auto connected = RemoteBackend::Connect(addr, ClientOptions());
        if (!connected.ok()) {
          std::fprintf(stderr, "GATE: connect failed for %s: %s\n", c.spec,
                       connected.status().ToString().c_str());
          ok = false;
          continue;
        }
        remote_options.session.backend =
            std::make_shared<ThreadDispatchBackend>(
                std::move(connected).value());
        spec = StrFormat("%s%cwindow=8", c.spec, sep);
      }
      const auto remote = RunWalkEngine(&graph, spec, remote_options);
      ++runs;
      if (!remote.ok()) {
        std::fprintf(stderr, "GATE: remote run failed for %s: %s\n",
                     spec.c_str(), remote.status().ToString().c_str());
        ok = false;
        continue;
      }
      for (size_t w = 0; w < kWalkers; ++w) {
        const auto remote_span = remote->SamplesFor(w);
        const auto local_span = local->SamplesFor(w);
        if (!std::equal(remote_span.begin(), remote_span.end(),
                        local_span.begin(), local_span.end())) {
          std::fprintf(stderr,
                       "GATE: samples diverged: %s walker %zu (dispatch=%s)\n",
                       c.spec, w, dispatch);
          ok = false;
        }
        if (remote->walker_stats[w].query_cost !=
                local->walker_stats[w].query_cost ||
            remote->walker_stats[w].total_queries !=
                local->walker_stats[w].total_queries) {
          std::fprintf(
              stderr,
              "GATE: query cost diverged: %s walker %zu (dispatch=%s)\n",
              c.spec, w, dispatch);
          ok = false;
        }
      }
    }
  }
  if (ok) {
    std::printf(
        "# identity: %d remote engine runs (%zu families x %zu dispatch "
        "modes) byte-identical to in-process at identical query cost\n",
        runs, std::size(kIdentityCases), std::size(kDispatchModes));
  }
  return ok;
}

struct SweepPoint {
  int window = 0;
  const char* dispatch = "";
  double wall_seconds = 0.0;  // best of env.trials
  double qps = 0.0;
  int thread_peak = 0;  // sampled while the executor was live
  uint64_t pool_tasks = 0;
  uint64_t native = 0;
};

int Run() {
  const BenchEnv env = ReadBenchEnv(/*default_trials=*/3,
                                    /*default_scale=*/1.0);
  double tolerance = 1.10;
  if (const char* raw = std::getenv("WNW_TOLERANCE")) {
    tolerance = std::atof(raw);
    if (tolerance <= 0.0) {
      std::fprintf(stderr, "error: bad WNW_TOLERANCE '%s'\n", raw);
      return 1;
    }
  }

  const NodeId n = static_cast<NodeId>(20000.0 * env.scale);
  constexpr uint32_t kM = 5;
  ServerChild child;
  if (!StartServerChild(env.seed, n, kM, &child)) return 1;
  const std::string addr = StrFormat("127.0.0.1:%d", child.port);
  std::fprintf(stderr, "# server child pid %d serving BA n=%u m=%u on %s\n",
               static_cast<int>(child.pid), static_cast<unsigned>(n), kM,
               addr.c_str());

  int exit_code = 0;
  {
    const auto graph = BuildGraph(env.seed, n, kM);
    if (!graph.ok()) {
      std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
      StopServerChild(child);
      return 1;
    }

    // --- gate 1: identity across dispatch modes -----------------------------
    bool ok = RunIdentityGate(*graph, addr, env.seed + 1);

    // --- gates 2+3: thread ceiling and wall-clock ---------------------------
    auto connected = RemoteBackend::Connect(addr, ClientOptions());
    if (!connected.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   connected.status().ToString().c_str());
      StopServerChild(child);
      return 1;
    }
    std::shared_ptr<RemoteBackend> remote = std::move(connected).value();
    const std::shared_ptr<AccessBackend> thread_dispatch =
        std::make_shared<ThreadDispatchBackend>(remote);

    const uint64_t kRequests =
        std::max<uint64_t>(512, static_cast<uint64_t>(4000.0 * env.scale));
    std::vector<NodeId> nodes(kRequests);
    Rng node_rng(env.seed + 2);
    for (NodeId& u : nodes) {
      u = static_cast<NodeId>(node_rng.NextBounded(n));
    }

    const int cores = std::max(1u, std::thread::hardware_concurrency());
    std::vector<SweepPoint> sweep;
    std::vector<std::vector<NodeId>> reference_lists;  // cross-mode identity
    for (const int window : {64, 512}) {
      for (const char* dispatch : kDispatchModes) {
        AsyncOptions options;
        options.window = window;
        options.threads = 0;
        const std::shared_ptr<AccessBackend> target =
            dispatch == std::string_view("completion") ? remote
                                                       : thread_dispatch;
        SweepPoint point;
        point.window = window;
        point.dispatch = dispatch;
        point.wall_seconds = 0.0;
        for (int trial = 0; trial < env.trials; ++trial) {
          CompletionExecutor executor(options);
          const double t0 = NowSeconds();
          auto handle = executor.SubmitBatch(target, nodes);
          auto reply = handle.Wait();
          const double wall = NowSeconds() - t0;
          // Sample while the executor (and its persistent pool) is live:
          // pool workers are never reaped before destruction, so this IS
          // the peak for the trial.
          point.thread_peak =
              std::max(point.thread_peak, CountProcessThreads());
          const auto stats = executor.stats();
          point.pool_tasks = stats.pool_tasks;
          point.native = stats.native_completions;
          if (!reply.ok()) {
            std::fprintf(stderr, "GATE: batch failed (window=%d, %s): %s\n",
                         window, dispatch,
                         reply.status().ToString().c_str());
            ok = false;
            break;
          }
          if (reference_lists.empty()) {
            reference_lists = reply->lists;
          } else if (reply->lists != reference_lists) {
            std::fprintf(stderr,
                         "GATE: batch replies diverged across modes "
                         "(window=%d, %s)\n",
                         window, dispatch);
            ok = false;
          }
          if (trial == 0 || wall < point.wall_seconds) {
            point.wall_seconds = wall;
          }
        }
        point.qps = point.wall_seconds > 0.0
                        ? static_cast<double>(kRequests) / point.wall_seconds
                        : 0.0;
        sweep.push_back(point);
      }
    }

    TablePrinter table({"window", "dispatch", "wall_s", "qps", "threads",
                        "native", "pool_tasks"});
    table.AddComment(StrFormat(
        "Completion-dispatch sweep: %llu FetchNeighbors over loopback "
        "(best of %d; cores=%d)",
        static_cast<unsigned long long>(kRequests), env.trials, cores));
    for (const SweepPoint& p : sweep) {
      table.AddRow({TablePrinter::Cell(static_cast<uint64_t>(p.window)),
                    TablePrinter::Cell(p.dispatch),
                    TablePrinter::CellPrec(p.wall_seconds, 4),
                    TablePrinter::Cell(StrFormat("%.0f", p.qps)),
                    TablePrinter::Cell(static_cast<uint64_t>(p.thread_peak)),
                    TablePrinter::Cell(p.native),
                    TablePrinter::Cell(p.pool_tasks)});
    }
    table.Print(stdout);

    if (const char* json_path = std::getenv("WNW_BENCH_JSON")) {
      std::FILE* f = std::fopen(json_path, "w");
      if (f == nullptr) {
        std::fprintf(stderr, "error: cannot write %s\n", json_path);
        StopServerChild(child);
        return 1;
      }
      std::fprintf(f,
                   "{\n  \"bench\": \"ablation_completion_dispatch\",\n"
                   "  \"graph_nodes\": %u,\n  \"requests\": %llu,\n"
                   "  \"cores\": %d,\n  \"sweep\": [\n",
                   static_cast<unsigned>(n),
                   static_cast<unsigned long long>(kRequests), cores);
      for (size_t i = 0; i < sweep.size(); ++i) {
        const SweepPoint& p = sweep[i];
        std::fprintf(
            f,
            "    {\"window\": %d, \"dispatch\": \"%s\", "
            "\"wall_seconds\": %.6f, \"qps\": %.1f, \"thread_peak\": %d, "
            "\"native_completions\": %llu, \"pool_tasks\": %llu}%s\n",
            p.window, p.dispatch, p.wall_seconds, p.qps, p.thread_peak,
            static_cast<unsigned long long>(p.native),
            static_cast<unsigned long long>(p.pool_tasks),
            i + 1 < sweep.size() ? "," : "");
      }
      std::fprintf(f, "  ]\n}\n");
      std::fclose(f);
    }

    for (size_t i = 0; i + 1 < sweep.size(); i += 2) {
      const SweepPoint& completion = sweep[i];
      const SweepPoint& threads = sweep[i + 1];
      if (completion.window == 512 &&
          completion.thread_peak > cores + 4) {
        std::fprintf(stderr,
                     "GATE: completion dispatch at window=512 reached %d "
                     "live threads (limit cores+4 = %d)\n",
                     completion.thread_peak, cores + 4);
        ok = false;
      }
      if (completion.wall_seconds > threads.wall_seconds * tolerance) {
        std::fprintf(stderr,
                     "GATE: completion dispatch at window=%d took %.4fs vs "
                     "thread pool %.4fs (tolerance %.2fx)\n",
                     completion.window, completion.wall_seconds,
                     threads.wall_seconds, tolerance);
        ok = false;
      }
      std::printf(
          "# window=%d: completion %.0f qps on %d threads vs pool %.0f qps "
          "on %d threads\n",
          completion.window, completion.qps, completion.thread_peak,
          threads.qps, threads.thread_peak);
    }

    if (!ok) {
      exit_code = 1;
    } else {
      std::printf(
          "# GATE OK: identity held across dispatch modes, completion kept "
          "threads <= cores+4 at window=512, and matched the pool's "
          "wall-clock\n");
    }
  }  // remote backend and executors destroyed before the server goes away

  StopServerChild(child);
  return exit_code;
}

}  // namespace

int main() { return Run(); }
