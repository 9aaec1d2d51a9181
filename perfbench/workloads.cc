#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>
#include <unistd.h>

#include "access/remote_backend.h"
#include "access/snapshot_backend.h"
#include "core/registry.h"
#include "core/session.h"
#include "engine/walk_engine.h"
#include "estimation/aggregates.h"
#include "graph/generators.h"
#include "graph/sharded_graph.h"
#include "net/server.h"
#include "random/rng.h"
#include "storage/ingest.h"
#include "storage/snapshot.h"
#include "trace.h"
#include "util/thread_stats.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using wnw::AccessBackend;
using wnw::Graph;
using wnw::NodeId;
using wnw::Timer;

// --- fixed work ----------------------------------------------------------------

// Set-up is repeated and its median reported, so that a later change moving
// work into set-up shows in setup_s rather than hiding in one noisy reading.
constexpr int kSetupRepeats = 3;

// Trace-file cap; self times and counts still cover every span.
constexpr uint64_t kMaxStoredSpans = 200000;

// Hard stop for a measured phase whose job or sweep floor takes too long (a
// stalled origin, say), so a run always ends within three minutes; a traced
// run's two halves get half of it each.
constexpr double kMaxPhaseSeconds = 100.0;

// Session workloads: WALK-ESTIMATE jobs over a BA graph.
constexpr NodeId kGraphNodes = 1000000;
constexpr uint32_t kGraphM = 5;
constexpr char kWeSpec[] = "we:mhrw?diameter=6";
constexpr char kBurnInSpec[] = "burnin:srw";
constexpr char kWeWalk[] = "mhrw";
// One pass of the job list; an untraced measured phase runs at least one.
// we-remote runs the first kRemoteJobs jobs of the same list: a pass of 1500
// draws takes ~45 s over the wire. Fewer jobs make the remote p50 and p99
// depend on which jobs the seed drew: jobs differ in cost as a whole, and at
// 10 jobs that alone spread the p50 by ~0.18 of itself from seed to seed.
constexpr uint32_t kLocalJobs = 30;
constexpr uint32_t kRemoteJobs = 15;
constexpr uint32_t kDrawsPerJob = 100;
// Closed loop: each walker waits for its Draw. we-remote runs one walker, the
// paper's single crawler: with two, each walker's round trips queue behind
// the other's on the one reactor and client loop, which doubles the draw
// latency and makes it depend on how the two walkers' draws happen to
// overlap rather than on the draw's own fetches.
constexpr int kLocalWalkers = 2;
constexpr int kRemoteWalkers = 1;
// The tail a session workload reports: p99, which has >= 10 draws beyond it
// because an untraced phase runs at least one pass of >= 1500 draws.
constexpr double kSessionTailPct = 99.0;
constexpr uint32_t kClaimJobs = 2;     // jobs the headline-claim check reruns
constexpr double kDegreeBiasAllowance = 0.20;  // see CheckDegreeEstimate
constexpr double kDegreeStandardErrors = 3.0;
constexpr int kRemoteShards = 4;
constexpr int kServerThreads = 1;
constexpr int kRemoteConnections = 2;

// Engine sweep: a stream-ingested uniform random graph, paged under a
// residency budget a quarter of its 32 MB adjacency.
constexpr NodeId kEngineNodes = 1000000;
constexpr uint64_t kEngineEdges = 4000000;
constexpr uint64_t kIngestBudgetBytes = 8ull << 20;
constexpr uint64_t kResidencyBudgetBytes = 8ull << 20;
// Sweeps of 50k walkers (~0.12 s each) rather than 1M: a run then holds ~200
// sweeps, so the median and the tail of their times are read off many sweeps
// instead of the middle and the slowest of a handful. A sweep is one timed
// operation — its samples all arrive when it returns and share its time — so
// the tail rule counts sweeps: with >= kMinSweeps sweeps, p90 has >= 10
// beyond it, and p90 is the engine's reported tail.
constexpr uint64_t kEngineWalkers = 50000;
constexpr char kEngineSpec[] = "walk:srw?steps=8";
constexpr uint64_t kMinSweeps = 100;
constexpr double kEngineTailPct = 90.0;
// One engine thread steps on the calling thread; with the engine's own statm
// sampler, the residency prefetcher and the benchmark's thread probe the
// process runs 4 threads. Two engine threads leave the caller blocked in join
// beside two workers: 6 threads, over a 4-core budget.
constexpr int kEngineThreads = 1;
constexpr int kPrefetchDepth = 2;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"samples_per_s", "1/s"},
    {"sample_p50_ms", "ms"},
    {"sample_tail_ms", "ms"},
    {"query_cost_per_sample", "nodes/sample"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Every traced run reports every per-layer metric; a layer the workload
// bypasses reads 0.
constexpr MetricDef kPerLayer[] = {
    {"graph.build_s", "s"},
    {"core.open_us_p50", "us"},
    {"core.self_s", "s"},
    {"core.acceptance_rate", "ratio"},
    {"core.backward_walks_per_sample", "walks/sample"},
    {"core.forward_steps_per_sample", "steps/sample"},
    {"access.queries_per_sample", "queries/sample"},
    {"access.local_hit_ratio", "ratio"},
    {"access.backend.calls_per_sample", "calls/sample"},
    {"access.backend.busy_s", "s"},
    {"access.backend.call_us_p50", "us"},
    {"access.backend.call_us_p99", "us"},
    {"net.connect_s", "s"},
    {"net.rpc_us_p50", "us"},
    {"net.rpc_us_p99", "us"},
    {"net.rpcs_per_sample", "rpcs/sample"},
    {"net.wire_bytes_per_rpc", "bytes/rpc"},
    {"net.retries", "count"},
    {"net.server.requests_served", "count"},
    {"net.server.protocol_errors", "count"},
    {"engine.run_s", "s"},
    {"engine.steps_per_s", "1/s"},
    {"engine.steps", "count"},
    {"engine.steps_per_block_switch", "steps/switch"},
    {"engine.bytes_scanned_per_step", "bytes/step"},
    {"storage.write_s", "s"},
    {"storage.ingest_s", "s"},
    {"storage.ingest.edges_per_s", "1/s"},
    {"storage.ingest.sort_s", "s"},
    {"storage.ingest.emit_s", "s"},
    {"storage.ingest.runs", "count"},
    {"storage.load_s", "s"},
    {"storage.residency.peak_bytes", "bytes"},
    {"storage.residency.prefetches", "count"},
    {"storage.residency.releases", "count"},
    {"storage.resident_peak_bytes", "bytes"},
    {"proc.threads_peak", "count"},
    {"proc.steal_s", "s"},
    {"trace.self_s.bench", "s"},
    {"trace.self_s.graph", "s"},
    {"trace.self_s.storage", "s"},
    {"trace.self_s.core", "s"},
    {"trace.self_s.access", "s"},
    {"trace.self_s.net", "s"},
    {"trace.self_s.engine", "s"},
    {"trace.spans", "count"},
    {"trace.spans_dropped", "count"},
    {"trace.untraced_samples_per_s", "1/s"},
    {"trace.traced_samples_per_s", "1/s"},
    {"trace.overhead_pct", "%"},
};

const char* UnitOf(const std::string& name) {
  for (const MetricDef& m : kEndToEnd) {
    if (name == m.name) return m.unit;
  }
  for (const MetricDef& m : kPerLayer) {
    if (name == m.name) return m.unit;
  }
  std::fprintf(stderr, "perfbench: metric %s is not declared\n",
               name.c_str());
  std::abort();
}

void Put(Report* report, const std::string& name, double value) {
  report->Set(name, value, UnitOf(name));
}

// --- helpers ---------------------------------------------------------------------

bool Fail(const std::string& what, const wnw::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return false;
}

std::atomic<int> g_threads_peak{0};

// A thread the library has just joined can stay listed in /proc/self/task
// for a moment while the kernel finishes its exit (longer when the hypervisor
// preempts it there), so a reading over the budget counts only when a second
// reading 1 ms later still shows it.
void ProbeThreads() {
  int now = wnw::CountProcessThreads();
  if (now > Nproc()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    now = std::min(now, wnw::CountProcessThreads());
  }
  int seen = g_threads_peak.load(std::memory_order_relaxed);
  while (now > seen &&
         !g_threads_peak.compare_exchange_weak(seen, now,
                                               std::memory_order_relaxed)) {
  }
}

// Runs `fn` on one extra thread while this thread probes the live-thread
// count every 2 ms — for calls (the engine, the walker pool) that start and
// stop threads inside the library. False when the thread cannot start.
bool RunProbed(const std::function<void()>& fn) {
  std::atomic<bool> done{false};
  std::optional<std::thread> worker;
  try {
    worker.emplace([&] {
      fn();
      done.store(true, std::memory_order_release);
    });
  } catch (const std::system_error& e) {
    std::fprintf(stderr, "perfbench: cannot start a thread: %s\n", e.what());
    return false;
  }
  while (!done.load(std::memory_order_acquire)) {
    ProbeThreads();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  worker->join();
  return true;
}

// CPU-seconds the hypervisor gave this VM's CPUs to other guests (the steal
// column of /proc/stat); 0 where unavailable. A run that saw steal compares
// poorly with one that did not, so every run reports it.
double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "re");
  if (f == nullptr) return 0.0;
  unsigned long long t[8] = {};
  const int got =
      std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &t[0],
                  &t[1], &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]);
  std::fclose(f);
  const long hz = ::sysconf(_SC_CLK_TCK);
  return got == 8 && hz > 0 ? static_cast<double>(t[7]) / hz : 0.0;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string ScratchPath(const RunOptions& options, const char* stem) {
  return options.out_dir + "/" + stem + "-" + std::to_string(::getpid()) +
         ".snap";
}

uint64_t GraphSeed(uint64_t run_seed) { return wnw::Mix64(run_seed ^ 0x6ba); }
uint64_t EngineSeed(uint64_t run_seed) {
  return wnw::Mix64(run_seed ^ 0xe6e);
}

void ReportTraceTotals(Report* report) {
  const Tracer::Totals totals = Tracer::Collect();
  for (size_t i = 0; i < kLayers; ++i) {
    Put(report,
        std::string("trace.self_s.") + LayerName(static_cast<Layer>(i)),
        totals.self_seconds[i]);
  }
  Put(report, "trace.spans", static_cast<double>(totals.spans));
  Put(report, "trace.spans_dropped", static_cast<double>(totals.dropped));
}

void ReportOverhead(double untraced_rate, double traced_rate,
                    Report* report) {
  Put(report, "trace.untraced_samples_per_s", untraced_rate);
  Put(report, "trace.traced_samples_per_s", traced_rate);
  Put(report, "trace.overhead_pct",
      100.0 * Ratio(untraced_rate - traced_rate, untraced_rate));
}

void ReportCommon(double setup_s, Report* report, bool trace) {
  if (trace) {
    Put(report, "proc.threads_peak", g_threads_peak.load());
  } else {
    Put(report, "setup_s", setup_s);
    Put(report, "peak_rss_mb", PeakRssMb());
  }
  const int nproc = Nproc();
  report->Note("proc.threads_peak = " + std::to_string(g_threads_peak.load()) +
               " live threads (nproc " + std::to_string(nproc) + ")");
  report->Check(g_threads_peak.load() <= nproc,
                "live-thread peak <= nproc");
}

std::string TimingNote(const char* what, const Summary& s, const char* unit) {
  char line[200];
  std::snprintf(line, sizeof(line),
                "%s: n=%llu p50=%.4g %s, tail p%.4g=%.4g %s (highest "
                "percentile with >= 10 beyond)",
                what, static_cast<unsigned long long>(s.n), s.p50, unit,
                s.tail_pct, s.tail, unit);
  return line;
}

// --- session workloads -------------------------------------------------------------

struct SessionTotals {
  uint64_t jobs = 0;
  uint64_t samples = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t query_cost = 0;
  uint64_t total_queries = 0;
  uint64_t backend_fetches = 0;
  uint64_t candidates = 0;
  uint64_t accepted = 0;
  uint64_t forward_steps = 0;
  uint64_t backward_walks = 0;
  double draw_seconds = 0.0;
  std::vector<double> draw_ms;
  std::vector<double> open_us;
};

SessionTotals Sum(const std::vector<JobOutcome>& jobs) {
  SessionTotals t;
  for (const JobOutcome& j : jobs) {
    ++t.jobs;
    t.samples += j.samples.size();
    t.attempted += j.attempted;
    t.failed += j.failed;
    t.query_cost += j.query_cost;
    t.total_queries += j.total_queries;
    t.backend_fetches += j.backend_fetches;
    t.candidates += j.candidates_tried;
    t.accepted += j.samples_accepted;
    t.forward_steps += j.forward_steps;
    t.backward_walks += j.backward_walks;
    for (double s : j.draw_seconds) {
      t.draw_seconds += s;
      t.draw_ms.push_back(s * 1e3);
    }
    t.open_us.push_back(j.open_seconds * 1e6);
  }
  return t;
}

// One measured phase: jobs from a list of `pass_jobs` jobs, in order and
// round and round (job g runs job g % pass_jobs's seed), until `seconds` have
// passed and at least `min_jobs` jobs were claimed, or `max_seconds` have
// passed. Walker 0 is this thread.
struct SessionPhase {
  uint32_t pass_jobs = 0;
  int walkers = 0;
  std::vector<JobOutcome> jobs;  // by job sequence number
  double seconds = 0.0;
  bool ok = true;  // false when a walker thread could not start
};

SessionPhase RunSessionPhase(const Graph& graph,
                             const std::shared_ptr<AccessBackend>& backend,
                             uint64_t run_seed, uint32_t pass_jobs,
                             int walkers, double seconds, uint64_t min_jobs,
                             double max_seconds) {
  SessionPhase phase;
  phase.pass_jobs = pass_jobs;
  phase.walkers = walkers;
  std::mutex mu;
  uint64_t next = 0;             // guarded by mu
  bool stop = false;             // guarded by mu
  Timer timer;

  auto claim = [&]() -> std::optional<uint64_t> {
    std::lock_guard<std::mutex> lock(mu);
    if (!stop) {
      const double elapsed = timer.ElapsedSeconds();
      stop = (next >= min_jobs && elapsed >= seconds) ||
             elapsed >= max_seconds;
    }
    if (stop) return std::nullopt;
    phase.jobs.resize(next + 1);
    return next++;
  };
  auto walker = [&] {
    while (const std::optional<uint64_t> g = claim()) {
      ProbeThreads();
      JobOutcome outcome =
          RunJob(graph, backend, kWeSpec,
                 JobSeed(run_seed, static_cast<uint32_t>(*g % pass_jobs)),
                 kDrawsPerJob, static_cast<uint32_t>(*g));
      std::lock_guard<std::mutex> lock(mu);
      phase.jobs[*g] = std::move(outcome);
    }
  };

  std::vector<std::thread> others;
  try {
    for (int w = 1; w < walkers; ++w) others.emplace_back(walker);
  } catch (const std::system_error& e) {
    std::fprintf(stderr, "perfbench: cannot start a walker: %s\n", e.what());
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    phase.ok = false;
  }
  walker();
  for (std::thread& t : others) t.join();
  phase.seconds = timer.ElapsedSeconds();
  return phase;
}

// Every job after the first pass repeats the output of the first-pass job
// with its seed exactly.
bool PassesRepeat(const SessionPhase& phase) {
  const size_t n = phase.pass_jobs;
  for (size_t g = n; g < phase.jobs.size(); ++g) {
    if (!phase.jobs[g].SameOutput(phase.jobs[g % n])) return false;
  }
  return !phase.jobs.empty();
}

double SamplesPerSecond(const SessionPhase& phase) {
  uint64_t samples = 0;
  for (const JobOutcome& j : phase.jobs) samples += j.samples.size();
  return Ratio(static_cast<double>(samples), phase.seconds);
}

void ReportSessionEndToEnd(const SessionPhase& phase, Report* report) {
  const SessionTotals t = Sum(phase.jobs);
  report->Count(t.attempted, t.failed);
  Put(report, "samples_per_s", SamplesPerSecond(phase));
  const Summary latency = Summarize(t.draw_ms);
  Put(report, "sample_p50_ms", latency.p50);
  Put(report, "sample_tail_ms", latency.At(kSessionTailPct));
  report->Note(TimingNote("Draw latency", latency, "ms") +
               "; sample_tail_ms is p99");
  report->Check(SamplesBeyond(latency.n, kSessionTailPct) >= kMinBeyond,
                "p99 draw latency has >= 10 draws beyond it");
  // Over the first pass only, so that the cost is an exact count at a fixed
  // seed however many jobs the time allowed.
  const SessionTotals first = Sum(std::vector<JobOutcome>(
      phase.jobs.begin(),
      phase.jobs.begin() + std::min<size_t>(phase.pass_jobs, phase.jobs.size())));
  Put(report, "query_cost_per_sample",
      Ratio(static_cast<double>(first.query_cost),
            static_cast<double>(first.samples)));
  char line[160];
  std::snprintf(line, sizeof(line),
                "%llu jobs x %u draws in %.3f s by %d walkers; failed_frac "
                "%.6f (%llu of %llu Open/Draw calls)",
                static_cast<unsigned long long>(t.jobs), kDrawsPerJob,
                phase.seconds, phase.walkers,
                Ratio(static_cast<double>(t.failed),
                      static_cast<double>(t.attempted)),
                static_cast<unsigned long long>(t.failed),
                static_cast<unsigned long long>(t.attempted));
  report->Note(line);
}

void ReportSessionLayers(const SessionPhase& traced,
                         const TimedBackend::CallTotals& calls,
                         Report* report) {
  const SessionTotals t = Sum(traced.jobs);
  const double samples = static_cast<double>(t.samples);
  Put(report, "core.open_us_p50", Summarize(t.open_us).p50);
  Put(report, "core.self_s", std::max(0.0, t.draw_seconds - calls.busy_seconds));
  Put(report, "core.acceptance_rate",
      Ratio(static_cast<double>(t.accepted), static_cast<double>(t.candidates)));
  Put(report, "core.backward_walks_per_sample",
      Ratio(static_cast<double>(t.backward_walks), samples));
  Put(report, "core.forward_steps_per_sample",
      Ratio(static_cast<double>(t.forward_steps), samples));
  Put(report, "access.queries_per_sample",
      Ratio(static_cast<double>(t.total_queries), samples));
  Put(report, "access.local_hit_ratio",
      1.0 - Ratio(static_cast<double>(t.backend_fetches),
                  static_cast<double>(t.total_queries)));
  Put(report, "access.backend.calls_per_sample",
      Ratio(static_cast<double>(calls.calls), samples));
  Put(report, "access.backend.busy_s", calls.busy_seconds);
  const Summary call_us = Summarize(calls.durations_us);
  Put(report, "access.backend.call_us_p50", call_us.p50);
  Put(report, "access.backend.call_us_p99", call_us.At(99.0));
  report->Note(TimingNote("backend call", call_us, "us"));
}

struct LocalSetup {
  std::unique_ptr<Graph> graph;
  std::shared_ptr<AccessBackend> backend;
};

struct RemoteSetup {
  // Declared so that destruction runs client, server, origin, graph.
  std::unique_ptr<Graph> graph;
  std::shared_ptr<AccessBackend> origin;
  std::unique_ptr<wnw::net::WnwServer> server;
  std::shared_ptr<wnw::RemoteBackend> remote;
};

bool BuildGraph(uint64_t run_seed, std::unique_ptr<Graph>* out) {
  ScopedSpan span("graph.build", Layer::kGraph);
  wnw::Rng rng(GraphSeed(run_seed));
  auto built = wnw::MakeBarabasiAlbert(kGraphNodes, kGraphM, rng);
  if (!built.ok()) return Fail("graph build", built.status());
  *out = std::make_unique<Graph>(std::move(*built));
  return true;
}

// Median timings of the repeated set-up's parts.
struct SetupTimes {
  std::vector<double> total, build, write, load, connect, ingest, sort,
      emit, edges_per_s, runs;
};

bool SetUpLocal(const RunOptions& options, LocalSetup* setup,
                SetupTimes* times) {
  *setup = {};
  Timer total;
  if (!BuildGraph(options.seed, &setup->graph)) return false;
  times->build.push_back(total.ElapsedSeconds());
  setup->backend = std::make_shared<wnw::InMemoryBackend>(setup->graph.get());
  times->total.push_back(total.ElapsedSeconds());
  return true;
}

bool SetUpRemote(const RunOptions& options, RemoteSetup* setup,
                 SetupTimes* times) {
  setup->remote.reset();
  setup->server.reset();
  setup->origin.reset();
  setup->graph.reset();
  Timer total;
  Timer part;
  if (!BuildGraph(options.seed, &setup->graph)) return false;
  times->build.push_back(part.ElapsedSeconds());

  const std::string path = ScratchPath(options, "we-remote");
  part.Reset();
  {
    ScopedSpan span("storage.write", Layer::kStorage);
    auto sharded = wnw::ShardedGraph::FromGraph(*setup->graph, kRemoteShards,
                                                wnw::ShardPartition::kModulo);
    if (!sharded.ok()) return Fail("shard partition", sharded.status());
    wnw::SnapshotWriteOptions write;
    write.sharded = &*sharded;
    const wnw::Status status = wnw::WriteGraphSnapshot(*setup->graph, path, write);
    if (!status.ok()) return Fail("snapshot write", status);
  }
  times->write.push_back(part.ElapsedSeconds());

  part.Reset();
  {
    ScopedSpan span("storage.load", Layer::kStorage);
    wnw::BackendStackOptions stack;
    stack.shards = kRemoteShards;
    stack.partition = wnw::ShardPartition::kModulo;
    stack.snapshot = path;
    stack.snapshot_verify = true;
    auto origin = wnw::BuildSnapshotBackendStack(stack);
    std::error_code ignored;
    std::filesystem::remove(path, ignored);  // the mapping keeps the data
    if (!origin.ok()) return Fail("snapshot load", origin.status());
    setup->origin = std::move(*origin);
  }
  times->load.push_back(part.ElapsedSeconds());

  part.Reset();
  {
    ScopedSpan span("net.connect", Layer::kNet);
    wnw::net::ServerOptions server;
    server.threads = kServerThreads;
    auto started = wnw::net::WnwServer::Start(setup->origin, server);
    if (!started.ok()) return Fail("server start", started.status());
    setup->server = std::move(*started);
    wnw::RemoteBackendOptions client;
    client.connections = kRemoteConnections;
    auto remote = wnw::RemoteBackend::Connect(
        "127.0.0.1:" + std::to_string(setup->server->port()), client);
    if (!remote.ok()) return Fail("remote connect", remote.status());
    setup->remote = std::move(*remote);
  }
  times->connect.push_back(part.ElapsedSeconds());
  times->total.push_back(total.ElapsedSeconds());
  ProbeThreads();
  return true;
}

// The paper's headline claim, outside the timed phase: on the same graph and
// job seeds, WALK-ESTIMATE (the measured phase's first jobs) pays fewer
// distinct-node queries per sample than a Geweke-monitored burn-in walk.
void CheckHeadlineClaim(const Graph& graph,
                        const std::shared_ptr<AccessBackend>& backend,
                        uint64_t run_seed, const std::vector<JobOutcome>& jobs,
                        Report* report) {
  uint64_t we_cost = 0, we_samples = 0, burnin_cost = 0, burnin_samples = 0;
  for (uint32_t j = 0; j < kClaimJobs && j < jobs.size(); ++j) {
    const JobOutcome burnin = RunJob(graph, backend, kBurnInSpec,
                                     JobSeed(run_seed, j), kDrawsPerJob, j);
    we_cost += jobs[j].query_cost;
    we_samples += jobs[j].samples.size();
    burnin_cost += burnin.query_cost;
    burnin_samples += burnin.samples.size();
  }
  const double we_per = Ratio(static_cast<double>(we_cost),
                              static_cast<double>(we_samples));
  const double burnin_per = Ratio(static_cast<double>(burnin_cost),
                                  static_cast<double>(burnin_samples));
  char line[200];
  std::snprintf(line, sizeof(line),
                "headline claim: query cost per sample %s %.2f < %s %.2f "
                "(%u jobs x %u draws each)",
                kWeSpec, we_per, kBurnInSpec, burnin_per, kClaimJobs,
                kDrawsPerJob);
  report->Check(we_samples == kClaimJobs * kDrawsPerJob &&
                    burnin_samples == kClaimJobs * kDrawsPerJob &&
                    we_per < burnin_per,
                line);
}

// The AVG(degree) estimate over one pass's samples lies within
// kDegreeBiasAllowance x truth + kDegreeStandardErrors standard errors of the
// true average degree. WE at diameter=6 under-bounds the BA graph's diameter,
// which leaves it a known upward degree bias (the paper's diameter
// limitation, bench/fig05): +3% to +23% over seeds 1-10 at n=1000 samples. Uncorrected
// random-walk samples would read E[d^2]/E[d], printed alongside for scale.
void CheckDegreeEstimate(const Graph& graph, const SessionPhase& phase,
                         Report* report) {
  std::vector<NodeId> samples;
  for (size_t j = 0; j < std::min<size_t>(phase.pass_jobs, phase.jobs.size());
       ++j) {
    samples.insert(samples.end(), phase.jobs[j].samples.begin(),
                   phase.jobs[j].samples.end());
  }
  auto degree = [&](NodeId u) { return static_cast<double>(graph.Degree(u)); };
  const double estimate = wnw::EstimateAverage(
      samples, wnw::BiasForWalkSpec(kWeWalk), degree, degree);
  double squares = 0.0;
  for (NodeId u : samples) {
    squares += (degree(u) - estimate) * (degree(u) - estimate);
  }
  const double n = static_cast<double>(samples.size());
  const double standard_error = n > 1 ? std::sqrt(squares / (n - 1) / n) : 0;
  const double truth = graph.average_degree();
  const double tolerance =
      kDegreeBiasAllowance * truth + kDegreeStandardErrors * standard_error;
  const double degree_weighted =
      static_cast<double>(graph.degree_square_sum()) /
      (2.0 * static_cast<double>(graph.num_edges()));
  char line[240];
  std::snprintf(line, sizeof(line),
                "AVG(degree) estimate %.4f vs true %.4f: |error| %.4f <= "
                "%.2f x true + %.0f x se %.4f (n=%zu; uncorrected walk "
                "samples would read %.2f)",
                estimate, truth, std::abs(estimate - truth),
                kDegreeBiasAllowance, kDegreeStandardErrors, standard_error,
                samples.size(), degree_weighted);
  report->Check(!samples.empty() && std::abs(estimate - truth) <= tolerance,
                line);
}

// Runs the measured phase (or, traced, an untraced half then a traced half
// over `timed`), the session checks, and the report. `remote` is the client
// whose counters the traced half reports (nullptr for we-local).
bool RunSessionMeasured(const RunOptions& options, const Graph& graph,
                        const std::shared_ptr<AccessBackend>& backend,
                        uint32_t pass_jobs, int walkers,
                        const SetupTimes& times,
                        wnw::RemoteBackend* remote,
                        wnw::net::WnwServer* server, Report* report,
                        SessionPhase* reference) {
  if (!options.trace) {
    *reference = RunSessionPhase(graph, backend, options.seed, pass_jobs,
                                 walkers, options.seconds, pass_jobs,
                                 kMaxPhaseSeconds);
    if (!reference->ok) return false;
    report->Check(reference->jobs.size() >= pass_jobs,
                  "the measured phase ran at least one whole pass");
    ReportSessionEndToEnd(*reference, report);
    report->Check(PassesRepeat(*reference),
                  "every pass repeats the first pass's samples and costs");
    return true;
  }

  // Each half runs at least a third of a pass: enough jobs for the layer
  // counts and the traced-equals-untraced check, without a remote traced run
  // paying for two whole passes.
  const uint64_t half_min_jobs = std::max<uint64_t>(1, pass_jobs / 3);
  Tracer::Pause();
  *reference = RunSessionPhase(graph, backend, options.seed, pass_jobs,
                               walkers, options.seconds / 2, half_min_jobs,
                               kMaxPhaseSeconds / 2);
  if (!reference->ok) return false;

  auto timed = std::make_shared<TimedBackend>(
      backend, remote != nullptr ? kNetSpans : kAccessSpans,
      remote != nullptr ? Layer::kNet : Layer::kAccess);
  const uint64_t rpcs0 = remote != nullptr ? remote->rpcs() : 0;
  const uint64_t bytes0 = remote != nullptr ? remote->wire_bytes() : 0;
  const uint64_t retries0 = remote != nullptr ? remote->retries() : 0;
  const auto served0 =
      server != nullptr ? server->counters() : wnw::net::WnwServer::Counters{};
  Tracer::Enable(kMaxStoredSpans);
  const SessionPhase traced =
      RunSessionPhase(graph, timed, options.seed, pass_jobs, walkers,
                      options.seconds / 2, half_min_jobs,
                      kMaxPhaseSeconds / 2);
  Tracer::Pause();
  if (!traced.ok) return false;

  const SessionTotals plain_t = Sum(reference->jobs);
  const SessionTotals traced_t = Sum(traced.jobs);
  report->Count(plain_t.attempted + traced_t.attempted,
                plain_t.failed + traced_t.failed);
  bool identical = PassesRepeat(*reference) && PassesRepeat(traced);
  const size_t common =
      std::min({size_t{pass_jobs}, reference->jobs.size(), traced.jobs.size()});
  for (size_t j = 0; identical && j < common; ++j) {
    identical = traced.jobs[j].SameOutput(reference->jobs[j]);
  }
  report->Check(identical,
                "traced and untraced halves emit identical samples and "
                "query costs");

  const TimedBackend::CallTotals calls = timed->Totals();
  ReportSessionLayers(traced, calls, report);
  Put(report, "graph.build_s", Median(times.build));
  if (remote != nullptr) {
    const double samples = static_cast<double>(traced_t.samples);
    const double rpcs = static_cast<double>(remote->rpcs() - rpcs0);
    const Summary rpc_us = Summarize(calls.durations_us);
    const auto served = server->counters();
    Put(report, "net.rpc_us_p50", rpc_us.p50);
    Put(report, "net.rpc_us_p99", rpc_us.At(99.0));
    Put(report, "net.rpcs_per_sample", Ratio(rpcs, samples));
    Put(report, "net.wire_bytes_per_rpc",
        Ratio(static_cast<double>(remote->wire_bytes() - bytes0), rpcs));
    Put(report, "net.retries",
        static_cast<double>(remote->retries() - retries0));
    Put(report, "net.server.requests_served",
        static_cast<double>(served.requests_served - served0.requests_served));
    Put(report, "net.server.protocol_errors",
        static_cast<double>(served.protocol_errors));
    Put(report, "net.connect_s", Median(times.connect));
    Put(report, "storage.write_s", Median(times.write));
    Put(report, "storage.load_s", Median(times.load));
  }
  ReportOverhead(SamplesPerSecond(*reference), SamplesPerSecond(traced),
                 report);
  return true;
}

bool RunWeLocal(const RunOptions& options, Report* report) {
  LocalSetup setup;
  SetupTimes times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (!SetUpLocal(options, &setup, &times)) return false;
  }
  ProbeThreads();
  SessionPhase phase;
  if (!RunSessionMeasured(options, *setup.graph, setup.backend, kLocalJobs,
                          kLocalWalkers, times, nullptr, nullptr, report,
                          &phase)) {
    return false;
  }
  Tracer::Pause();
  CheckDegreeEstimate(*setup.graph, phase, report);
  CheckHeadlineClaim(*setup.graph, setup.backend, options.seed, phase.jobs,
                     report);
  ReportCommon(Median(times.total), report, options.trace);
  return true;
}

bool RunWeRemote(const RunOptions& options, Report* report) {
  RemoteSetup setup;
  SetupTimes times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (!SetUpRemote(options, &setup, &times)) return false;
  }
  SessionPhase phase;
  if (!RunSessionMeasured(options, *setup.graph, setup.remote, kRemoteJobs,
                          kRemoteWalkers, times, setup.remote.get(),
                          setup.server.get(), report, &phase)) {
    return false;
  }
  Tracer::Pause();
  // The cross-backend identity contract: over the wire, every job draws the
  // samples it draws in-process, at the same query cost.
  auto local = std::make_shared<wnw::InMemoryBackend>(setup.graph.get());
  const size_t jobs = std::min<size_t>(kRemoteJobs, phase.jobs.size());
  bool identical = jobs > 0;
  for (uint32_t j = 0; identical && j < jobs; ++j) {
    identical = RunJob(*setup.graph, local, kWeSpec,
                       JobSeed(options.seed, j), kDrawsPerJob, j)
                    .SameOutput(phase.jobs[j]);
  }
  report->Check(identical,
                "remote samples and query costs equal in-process ones for "
                "every job seed");
  ReportCommon(Median(times.total), report, options.trace);
  return true;
}

// --- engine sweep ------------------------------------------------------------------

using SnapshotOrigin = std::shared_ptr<wnw::SnapshotBackend>;

bool SetUpEngine(const RunOptions& options, SnapshotOrigin* origin,
                 SetupTimes* times, bool* counts_match) {
  origin->reset();
  Timer total;
  const std::string path = ScratchPath(options, "engine-sweep");
  wnw::RandomEdgeSource source(kEngineNodes, kEngineEdges,
                               GraphSeed(options.seed));
  wnw::storage::IngestOptions ingest;
  ingest.memory_budget_bytes = kIngestBudgetBytes;
  ingest.temp_dir = options.out_dir;
  Timer part;
  auto stats = [&] {
    ScopedSpan span("storage.ingest", Layer::kStorage);
    return wnw::storage::StreamGraphSnapshot(source, path, ingest);
  }();
  if (!stats.ok()) return Fail("stream ingest", stats.status());
  times->ingest.push_back(part.ElapsedSeconds());
  times->sort.push_back(stats->run_seconds + stats->merge_seconds);
  times->emit.push_back(stats->emit_seconds);
  times->edges_per_s.push_back(Ratio(static_cast<double>(stats->input_edges),
                                     stats->total_seconds));
  times->runs.push_back(static_cast<double>(stats->sorted_runs));

  part.Reset();
  auto loaded = [&] {
    ScopedSpan span("storage.load", Layer::kStorage);
    return wnw::LoadGraphSnapshot(path, {.verify_checksum = true});
  }();
  std::error_code ignored;
  std::filesystem::remove(path, ignored);  // the mapping keeps the data
  if (!loaded.ok()) return Fail("snapshot load", loaded.status());
  times->load.push_back(part.ElapsedSeconds());
  *counts_match = *counts_match &&
                  loaded->graph.num_nodes() == stats->num_nodes &&
                  loaded->graph.num_edges() == stats->num_edges;
  *origin = std::make_shared<wnw::SnapshotBackend>(std::move(*loaded),
                                                   wnw::AccessOptions{});
  times->total.push_back(total.ElapsedSeconds());
  return true;
}

wnw::EngineOptions EngineRunOptions(const SnapshotOrigin& origin,
                                    uint64_t run_seed) {
  wnw::EngineOptions options;
  options.walkers = kEngineWalkers;
  options.samples_per_walker = 1;
  options.threads = kEngineThreads;
  options.residency_budget_bytes = kResidencyBudgetBytes;
  options.prefetch_depth = kPrefetchDepth;
  options.session.backend = origin;
  options.session.seed = EngineSeed(run_seed);
  return options;
}

struct Sweep {
  double seconds = 0.0;
  uint64_t samples = 0;
  uint64_t query_cost = 0;
  uint64_t hash = 0;  // samples and per-walker costs
  wnw::SessionStats stats;
};

struct EnginePhase {
  std::vector<Sweep> sweeps;  // successful sweeps only
  std::optional<wnw::EngineResult> first;
  double seconds = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

uint64_t HashResult(const wnw::EngineResult& result) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (NodeId u : result.samples) h = wnw::Mix64(h ^ u);
  for (const wnw::EngineWalkerStats& s : result.walker_stats) {
    h = wnw::Mix64(h ^ s.query_cost);
    h = wnw::Mix64(h ^ (s.total_queries + (uint64_t{s.emitted} << 48)));
  }
  return h;
}

// Sweeps of the same walkers until `seconds` have passed and at least
// `min_sweeps` were attempted, or `max_seconds` have passed (at least one).
bool RunEnginePhase(const SnapshotOrigin& origin, uint64_t run_seed,
                    double seconds, uint64_t min_sweeps, double max_seconds,
                    EnginePhase* phase) {
  const Graph& graph = origin->graph();
  return RunProbed([&] {
    Timer timer;
    do {
      ++phase->attempted;
      Timer sweep_timer;
      auto result = [&] {
        ScopedSpan span("engine.run", Layer::kEngine);
        return wnw::RunWalkEngine(&graph, kEngineSpec,
                                  EngineRunOptions(origin, run_seed));
      }();
      const double sweep_seconds = sweep_timer.ElapsedSeconds();
      if (!result.ok()) {
        ++phase->failed;
        Fail("RunWalkEngine", result.status());
        continue;
      }
      Sweep sweep;
      sweep.seconds = sweep_seconds;
      for (const wnw::EngineWalkerStats& s : result->walker_stats) {
        sweep.samples += s.emitted;
        sweep.query_cost += s.query_cost;
      }
      sweep.hash = HashResult(*result);
      sweep.stats = result->stats;
      phase->sweeps.push_back(std::move(sweep));
      if (!phase->first.has_value()) phase->first = std::move(*result);
    } while ((timer.ElapsedSeconds() < seconds ||
              phase->attempted < min_sweeps) &&
             timer.ElapsedSeconds() < max_seconds);
    phase->seconds = timer.ElapsedSeconds();
  });
}

bool SweepsRepeat(const EnginePhase& phase, uint64_t hash) {
  if (phase.sweeps.empty()) return false;
  return std::all_of(phase.sweeps.begin(), phase.sweeps.end(),
                     [&](const Sweep& s) { return s.hash == hash; });
}

double SamplesPerSecond(const EnginePhase& phase) {
  uint64_t samples = 0;
  for (const Sweep& s : phase.sweeps) samples += s.samples;
  return Ratio(static_cast<double>(samples), phase.seconds);
}

void ReportEngineEndToEnd(const EnginePhase& phase, Report* report) {
  uint64_t samples = 0, cost = 0;
  std::vector<double> latency_ms;
  for (const Sweep& s : phase.sweeps) {
    samples += s.samples;
    cost += s.query_cost;
    latency_ms.push_back(s.seconds * 1e3);
  }
  // A sweep hands back all its samples when RunWalkEngine returns, so each
  // sample's latency is its sweep's wall time, and the timed operations the
  // tail rule counts are the sweeps.
  const Summary latency = Summarize(latency_ms);
  Put(report, "samples_per_s", SamplesPerSecond(phase));
  Put(report, "sample_p50_ms", latency.p50);
  Put(report, "sample_tail_ms", latency.At(kEngineTailPct));
  report->Check(SamplesBeyond(latency.n, kEngineTailPct) >= kMinBeyond,
                "p90 sweep time has >= 10 sweeps beyond it");
  std::string sweeps;
  for (const Sweep& s : phase.sweeps) {
    char seconds[32];
    std::snprintf(seconds, sizeof(seconds), " %.3f", s.seconds);
    sweeps += seconds;
  }
  report->Note(TimingNote("sample latency (= its sweep's wall time), over "
                          "sweeps",
                          latency, "ms") +
               "; sample_tail_ms is p90; sweep seconds:" + sweeps);
  Put(report, "query_cost_per_sample",
      Ratio(static_cast<double>(cost), static_cast<double>(samples)));
  char line[160];
  std::snprintf(line, sizeof(line),
                "%zu sweeps of %llu walkers in %.3f s; failed_frac %.6f "
                "(%llu of %llu RunWalkEngine calls)",
                phase.sweeps.size(),
                static_cast<unsigned long long>(kEngineWalkers), phase.seconds,
                Ratio(static_cast<double>(phase.failed),
                      static_cast<double>(phase.attempted)),
                static_cast<unsigned long long>(phase.failed),
                static_cast<unsigned long long>(phase.attempted));
  report->Note(line);
}

void ReportEngineLayers(const EnginePhase& phase, const SetupTimes& times,
                        Report* report) {
  std::vector<double> run_s, steps_per_s;
  uint64_t residency_peak = 0, resident_peak = 0;
  for (const Sweep& s : phase.sweeps) {
    run_s.push_back(s.seconds);
    steps_per_s.push_back(s.stats.engine_steps_per_sec);
    residency_peak = std::max(residency_peak, s.stats.engine_residency_peak_bytes);
    resident_peak = std::max(resident_peak, s.stats.engine_resident_peak);
  }
  const wnw::SessionStats& first = phase.sweeps.front().stats;
  const double steps = static_cast<double>(first.engine_steps);
  Put(report, "engine.run_s", Median(run_s));
  Put(report, "engine.steps_per_s", Median(steps_per_s));
  Put(report, "engine.steps", steps);
  Put(report, "engine.steps_per_block_switch",
      Ratio(steps, static_cast<double>(first.engine_block_switches)));
  Put(report, "engine.bytes_scanned_per_step",
      Ratio(static_cast<double>(first.engine_bytes_scanned), steps));
  Put(report, "storage.residency.peak_bytes",
      static_cast<double>(residency_peak));
  Put(report, "storage.residency.prefetches",
      static_cast<double>(first.engine_residency_prefetches));
  Put(report, "storage.residency.releases",
      static_cast<double>(first.engine_residency_releases));
  Put(report, "storage.resident_peak_bytes",
      static_cast<double>(resident_peak));
  Put(report, "storage.ingest_s", Median(times.ingest));
  Put(report, "storage.ingest.edges_per_s", Median(times.edges_per_s));
  Put(report, "storage.ingest.sort_s", Median(times.sort));
  Put(report, "storage.ingest.emit_s", Median(times.emit));
  Put(report, "storage.ingest.runs", Median(times.runs));
  Put(report, "storage.load_s", Median(times.load));
}

bool RunEngineSweep(const RunOptions& options, Report* report) {
  SnapshotOrigin origin;
  SetupTimes times;
  bool counts_match = true;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (!SetUpEngine(options, &origin, &times, &counts_match)) return false;
  }
  report->Check(counts_match,
                "ingested snapshot node and edge counts match IngestStats");

  EnginePhase phase;
  if (options.trace) Tracer::Pause();
  if (!RunEnginePhase(origin, options.seed,
                      options.trace ? options.seconds / 2 : options.seconds,
                      options.trace ? 1 : kMinSweeps,
                      options.trace ? kMaxPhaseSeconds / 2 : kMaxPhaseSeconds,
                      &phase)) {
    return false;
  }
  report->Count(phase.attempted, phase.failed);
  if (!phase.first.has_value()) {
    report->Check(false, "at least one sweep succeeded");
    ReportCommon(Median(times.total), report, options.trace);
    return true;
  }
  const uint64_t hash = HashResult(*phase.first);
  report->Check(SweepsRepeat(phase, hash),
                "every sweep emits the first sweep's samples and costs");

  if (options.trace) {
    EnginePhase traced;
    Tracer::Enable(kMaxStoredSpans);
    if (!RunEnginePhase(origin, options.seed, options.seconds / 2, 1,
                        kMaxPhaseSeconds / 2, &traced)) {
      return false;
    }
    Tracer::Pause();
    report->Count(traced.attempted, traced.failed);
    report->Check(SweepsRepeat(traced, hash),
                  "traced and untraced sweeps emit identical samples and "
                  "query costs");
    if (!traced.sweeps.empty()) ReportEngineLayers(traced, times, report);
    ReportOverhead(SamplesPerSecond(phase), SamplesPerSecond(traced), report);
  } else {
    ReportEngineEndToEnd(phase, report);
  }

  // The engine's identity contract: its first walkers are the walker pool's,
  // sample for sample and cost for cost. Two pool walkers keep the probe
  // thread and the pool's caller within nproc.
  const int pool_walkers = std::max(1, Nproc() - 2);
  wnw::WalkerPoolOptions pool_options;
  pool_options.walkers = pool_walkers;
  pool_options.samples_per_walker = 1;
  pool_options.session.backend = origin;
  pool_options.session.seed = EngineSeed(options.seed);
  std::optional<wnw::Result<wnw::WalkerPoolResult>> pool;
  if (!RunProbed([&] {
        pool.emplace(
            wnw::RunWalkerPool(&origin->graph(), kEngineSpec, pool_options));
      })) {
    return false;
  }
  bool pool_matches = pool->ok();
  if (!pool_matches) Fail("RunWalkerPool", pool->status());
  for (int w = 0; pool_matches && w < pool_walkers; ++w) {
    const auto engine_samples = phase.first->SamplesFor(static_cast<size_t>(w));
    const std::vector<NodeId>& pool_samples = (*pool)->samples[w];
    pool_matches =
        std::equal(engine_samples.begin(), engine_samples.end(),
                   pool_samples.begin(), pool_samples.end()) &&
        (*pool)->stats[w].query_cost == phase.first->walker_stats[w].query_cost &&
        (*pool)->stats[w].total_queries ==
            phase.first->walker_stats[w].total_queries;
  }
  report->Check(pool_matches,
                "engine walkers 0.." + std::to_string(pool_walkers - 1) +
                    " equal RunWalkerPool with " +
                    std::to_string(pool_walkers) + " walkers");
  ReportCommon(Median(times.total), report, options.trace);
  return true;
}

}  // namespace

bool JobOutcome::SameOutput(const JobOutcome& other) const {
  return failed == 0 && other.failed == 0 && samples == other.samples &&
         query_cost == other.query_cost &&
         total_queries == other.total_queries;
}

uint64_t JobSeed(uint64_t run_seed, uint32_t job) {
  return wnw::Mix64(run_seed ^ (uint64_t{0x6a6f6200} + job));
}

JobOutcome RunJob(const Graph& graph,
                  const std::shared_ptr<AccessBackend>& backend,
                  std::string_view spec, uint64_t seed, uint32_t draws,
                  uint32_t job_id) {
  static std::atomic<bool> reported{false};
  auto report_failure = [&](const char* what, const wnw::Status& status) {
    if (!reported.exchange(true)) Fail(what, status);
  };

  JobOutcome out;
  ScopedSpan job_span("bench.job", Layer::kBench);
  Tracer::SetRequest(job_id, 0);
  wnw::SessionOptions options;
  options.backend = backend;
  options.seed = seed;
  std::unique_ptr<wnw::SamplingSession> session;
  ++out.attempted;
  {
    ScopedSpan span("core.open", Layer::kCore);
    Timer timer;
    auto opened = wnw::SamplingSession::Open(&graph, spec, options);
    out.open_seconds = timer.ElapsedSeconds();
    if (!opened.ok()) {
      ++out.failed;
      report_failure("SamplingSession::Open", opened.status());
      return out;
    }
    session = std::move(*opened);
  }
  out.samples.reserve(draws);
  out.draw_seconds.reserve(draws);
  for (uint32_t d = 0; d < draws; ++d) {
    Tracer::SetRequest(job_id, d + 1);
    ++out.attempted;
    const int64_t start = NowNs();
    wnw::Result<NodeId> drawn = [&] {
      ScopedSpan span("core.draw", Layer::kCore);
      return session->Draw();
    }();
    out.draw_seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    if (!drawn.ok()) {
      ++out.failed;
      report_failure("Draw", drawn.status());
      break;
    }
    out.samples.push_back(*drawn);
  }
  const wnw::SessionStats stats = session->Stats();
  out.query_cost = stats.query_cost;
  out.total_queries = stats.total_queries;
  out.backend_fetches = stats.backend_fetches;
  out.candidates_tried = stats.candidates_tried;
  out.samples_accepted = stats.samples_accepted;
  out.forward_steps = stats.forward_steps;
  out.backward_walks = stats.backward_walks;
  {
    ScopedSpan span("core.close", Layer::kCore);
    session.reset();
  }
  Tracer::SetRequest(0, 0);
  return out;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"we-local", "we-remote",
                                                 "engine-sweep"};
  return names;
}

bool RunWorkload(const RunOptions& options, Report* report) {
  g_threads_peak.store(0);
  ProbeThreads();
  const double steal0 = StealSeconds();
  const Timer run_timer;
  if (options.trace) {
    Tracer::Enable(kMaxStoredSpans);
    for (const MetricDef& m : kPerLayer) report->Set(m.name, 0.0, m.unit);
  }
  bool ok = false;
  if (options.workload == "we-local") {
    ok = RunWeLocal(options, report);
  } else if (options.workload == "we-remote") {
    ok = RunWeRemote(options, report);
  } else if (options.workload == "engine-sweep") {
    ok = RunEngineSweep(options, report);
  }
  if (!ok) return false;
  const double steal = StealSeconds() - steal0;
  char line[120];
  std::snprintf(line, sizeof(line),
                "host steal during the run: %.2f CPU-s over %.1f s of wall "
                "time",
                steal, run_timer.ElapsedSeconds());
  report->Note(line);
  if (!options.trace) return true;

  Put(report, "proc.steal_s", steal);
  Tracer::Pause();
  ReportTraceTotals(report);
  const std::string path = options.out_dir + "/trace-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  if (!Tracer::WriteChromeTrace(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return false;
  }
  report->Note("trace: " + path);
  return true;
}

}  // namespace perfbench
