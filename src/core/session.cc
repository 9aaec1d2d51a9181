#include "core/session.h"

#include <algorithm>
#include <cstdint>

#include "access/snapshot_backend.h"
#include "random/rng.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace wnw {

namespace {

// Pops params[key] (if present) parsed as a double into *out.
Result<bool> PopDouble(SamplerConfig* config, const char* key, double* out) {
  const auto it = config->params.find(key);
  if (it == config->params.end()) return false;
  if (!ParseDouble(it->second, out)) {
    return Status::InvalidArgument("backend parameter '" + std::string(key) +
                                   "=" + it->second + "' is not a number");
  }
  config->params.erase(it);
  return true;
}

Result<bool> PopUint(SamplerConfig* config, const char* key, uint64_t* out) {
  const auto it = config->params.find(key);
  if (it == config->params.end()) return false;
  if (!ParseUint64(it->second, out)) {
    return Status::InvalidArgument("backend parameter '" + std::string(key) +
                                   "=" + it->second +
                                   "' is not a non-negative integer");
  }
  config->params.erase(it);
  return true;
}

// Which reserved spec-parameter families a spec string carried; used to
// fail loudly on conflicts with explicit SessionOptions resources instead of
// silently dropping the spec's request.
struct ReservedSelections {
  bool backend = false;    // backend=... or any latency/remote parameter
  bool executor = false;   // window=... (and threads=...)
  bool shards = false;     // shards=... (origin sharding)
  bool partition = false;  // partition=... (requires shards)
  bool snapshot = false;   // snapshot=... (disk-backed origin)
  bool remote = false;     // backend=remote / addr=... (wnw_serve client)
};

// Extracts the reserved session parameters from a spec config — backend
// selection (?backend=latency&mean_ms=50&jitter_ms=10&fail_rate=0.1&
// retry_ms=200&retries=64&net_seed=7&sleep_scale=1), origin sharding
// (?shards=8&partition=hash|range|degree), and fetch-executor sizing
// (?window=8&threads=4) — so the sampler compiler never sees them.
// Overrides options->latency / options->async when present. The key list
// must stay in sync with ReservedSessionKeys() in core/registry.cc.
Result<ReservedSelections> ExtractReservedParams(SamplerConfig* config,
                                                 SessionOptions* options) {
  ReservedSelections selected;
  // Engine keys are reserved but not consumable here: a plain session (or
  // walker pool) cannot host the block engine — RunWalkEngine peels them
  // before resolving, so seeing one means the caller took the wrong entry
  // point.
  for (const char* key :
       {"engine", "walkers", "block", "residency_mb", "prefetch"}) {
    if (config->params.contains(key)) {
      return Status::InvalidArgument(
          "spec key '" + std::string(key) +
          "' selects the block walk engine, which a plain SamplingSession "
          "cannot host — run it through RunWalkEngine (wnw_sample routes "
          "?engine=block there automatically)");
    }
  }
  std::string kind;
  const auto it = config->params.find("backend");
  const bool kind_present = it != config->params.end();
  if (kind_present) {
    kind = it->second;
    config->params.erase(it);
  }
  if (kind_present && kind != "memory" && kind != "latency" &&
      kind != "remote") {
    return Status::InvalidArgument(
        "unknown backend '" + kind + "' (expected memory | latency | remote)");
  }
  LatencyConfig latency;
  bool any_latency_param = false;
  uint64_t net_seed = latency.seed;
  uint64_t retries = static_cast<uint64_t>(latency.max_retries);
  for (const auto& [key, target] :
       std::initializer_list<std::pair<const char*, double*>>{
           {"mean_ms", &latency.mean_ms},
           {"jitter_ms", &latency.jitter_ms},
           {"fail_rate", &latency.failure_rate},
           {"retry_ms", &latency.retry_backoff_ms},
           {"sleep_scale", &latency.sleep_scale}}) {
    WNW_ASSIGN_OR_RETURN(const bool present, PopDouble(config, key, target));
    any_latency_param = any_latency_param || present;
  }
  for (const auto& [key, target] :
       std::initializer_list<std::pair<const char*, uint64_t*>>{
           {"net_seed", &net_seed}, {"retries", &retries}}) {
    WNW_ASSIGN_OR_RETURN(const bool present, PopUint(config, key, target));
    any_latency_param = any_latency_param || present;
  }
  latency.seed = net_seed;
  latency.max_retries = static_cast<int>(
      std::min<uint64_t>(retries, static_cast<uint64_t>(INT32_MAX)));

  // Range-check user input here so malformed specs come back as Status like
  // every other spec error, instead of tripping the constructor CHECKs.
  if (latency.mean_ms < 0.0 || latency.jitter_ms < 0.0 ||
      latency.retry_backoff_ms < 0.0 || latency.sleep_scale < 0.0) {
    return Status::InvalidArgument(
        "latency parameters mean_ms, jitter_ms, retry_ms, sleep_scale must "
        "be >= 0");
  }
  if (latency.failure_rate < 0.0 || latency.failure_rate >= 1.0) {
    return Status::InvalidArgument("fail_rate must be in [0, 1)");
  }

  if (kind == "latency") {
    options->latency = latency;
  } else if (any_latency_param) {
    return Status::InvalidArgument(
        "latency parameters (mean_ms, jitter_ms, fail_rate, retry_ms, "
        "retries, net_seed, sleep_scale) require backend=latency");
  } else if (kind == "memory") {
    options->latency.reset();
  }

  // Remote origin: ?backend=remote&addr=host:port plus client tuning. The
  // scenario (restriction, shards, rate limits) lives server-side, so none
  // of the other origin families compose with it.
  std::string addr;
  const auto addr_it = config->params.find("addr");
  const bool addr_present = addr_it != config->params.end();
  if (addr_present) {
    addr = addr_it->second;
    config->params.erase(addr_it);
    if (addr.empty()) {
      return Status::InvalidArgument(
          "addr parameter needs a host:port (addr=127.0.0.1:7411)");
    }
  }
  double deadline_ms = options->remote.deadline_ms;
  double rpc_backoff_ms = options->remote.retry_backoff_ms;
  uint64_t connections = static_cast<uint64_t>(options->remote.connections);
  uint64_t rpc_retries = static_cast<uint64_t>(options->remote.max_retries);
  bool any_remote_param = addr_present;
  for (const auto& [key, target] :
       std::initializer_list<std::pair<const char*, double*>>{
           {"deadline_ms", &deadline_ms},
           {"rpc_backoff_ms", &rpc_backoff_ms}}) {
    WNW_ASSIGN_OR_RETURN(const bool present, PopDouble(config, key, target));
    any_remote_param = any_remote_param || present;
  }
  for (const auto& [key, target] :
       std::initializer_list<std::pair<const char*, uint64_t*>>{
           {"connections", &connections}, {"rpc_retries", &rpc_retries}}) {
    WNW_ASSIGN_OR_RETURN(const bool present, PopUint(config, key, target));
    any_remote_param = any_remote_param || present;
  }
  if (kind == "remote") {
    if (!addr_present && options->remote_addr.empty()) {
      return Status::InvalidArgument(
          "backend=remote requires addr=host:port");
    }
    if (addr_present && !options->remote_addr.empty() &&
        addr != options->remote_addr) {
      return Status::InvalidArgument(
          "spec requests addr '" + addr +
          "' but SessionOptions already names '" + options->remote_addr +
          "' — drop one of the two");
    }
    if (addr_present) options->remote_addr = addr;
    options->remote.deadline_ms = deadline_ms;
    options->remote.retry_backoff_ms = rpc_backoff_ms;
    // RemoteBackend::Connect range-checks these; clamp only the narrowing.
    options->remote.connections = static_cast<int>(
        std::min<uint64_t>(connections, static_cast<uint64_t>(INT32_MAX)));
    options->remote.max_retries = static_cast<int>(
        std::min<uint64_t>(rpc_retries, static_cast<uint64_t>(INT32_MAX)));
    if (any_latency_param) {
      return Status::InvalidArgument(
          "latency parameters contradict backend=remote — the wire IS the "
          "latency; drop one of the two");
    }
  } else if (any_remote_param) {
    return Status::InvalidArgument(
        "remote parameters (addr, deadline_ms, connections, rpc_retries, "
        "rpc_backoff_ms) require backend=remote");
  } else if (kind_present && !options->remote_addr.empty()) {
    return Status::InvalidArgument(
        "backend=" + kind + " contradicts SessionOptions remote_addr '" +
        options->remote_addr + "' — drop one of the two");
  }
  selected.remote = kind == "remote";
  selected.backend = kind_present || any_latency_param || any_remote_param;

  // Origin sharding: ?shards=8&partition=hash|range|degree. Orthogonal to
  // the backend kind — with shards, the latency/rate-limit scenario moves
  // inside the ShardedBackend (one decorator stack per shard).
  uint64_t shard_count = 0;
  WNW_ASSIGN_OR_RETURN(const bool shards_present,
                       PopUint(config, "shards", &shard_count));
  std::string partition_key;
  const auto partition_it = config->params.find("partition");
  const bool partition_present = partition_it != config->params.end();
  if (partition_present) {
    partition_key = partition_it->second;
    config->params.erase(partition_it);
  }
  if (partition_present && !shards_present && options->shards < 1) {
    return Status::InvalidArgument(
        "shard parameter partition requires shards");
  }
  if (shards_present) {
    if (shard_count < 1 ||
        shard_count > static_cast<uint64_t>(ShardedGraph::kMaxShards)) {
      return Status::InvalidArgument(
          "shards must be in [1, " +
          std::to_string(ShardedGraph::kMaxShards) + "]");
    }
    options->shards = static_cast<int>(shard_count);
  }
  if (partition_present) {
    WNW_ASSIGN_OR_RETURN(options->partition,
                         ParseShardPartition(partition_key));
  }
  selected.shards = shards_present;
  selected.partition = partition_present;

  // Disk-backed origin: ?snapshot=/path/to/file.snap serves the mmap'd
  // snapshot instead of the in-process graph. Orthogonal to latency and
  // shards (both compose around/inside the snapshot origin), but
  // backend=memory explicitly asks for the in-process origin — a direct
  // contradiction.
  const auto snapshot_it = config->params.find("snapshot");
  if (snapshot_it != config->params.end()) {
    if (snapshot_it->second.empty()) {
      return Status::InvalidArgument(
          "snapshot parameter needs a file path (snapshot=/path/to/file)");
    }
    if (!options->snapshot.empty() &&
        options->snapshot != snapshot_it->second) {
      // Same loud-conflict convention as every other reserved key: never
      // silently clobber an explicitly provided resource.
      return Status::InvalidArgument(
          "spec requests snapshot '" + snapshot_it->second +
          "' but SessionOptions already names '" + options->snapshot +
          "' — drop one of the two");
    }
    options->snapshot = snapshot_it->second;
    config->params.erase(snapshot_it);
    selected.snapshot = true;
  }
  if (selected.snapshot && kind == "memory") {
    return Status::InvalidArgument(
        "backend=memory contradicts snapshot= (the snapshot IS the origin) "
        "— drop one of the two");
  }

  // Trusted-open fast path: ?snapshot_verify=off skips the checksum scan
  // (see SessionOptions::snapshot_verify). Meaningless without a snapshot.
  const auto verify_it = config->params.find("snapshot_verify");
  if (verify_it != config->params.end()) {
    const std::string& value = verify_it->second;
    if (value == "off" || value == "false" || value == "0") {
      options->snapshot_verify = false;
    } else if (value == "on" || value == "true" || value == "1") {
      options->snapshot_verify = true;
    } else {
      return Status::InvalidArgument("snapshot_verify='" + value +
                                     "' is not on|off");
    }
    config->params.erase(verify_it);
    if (options->snapshot.empty()) {
      return Status::InvalidArgument(
          "snapshot_verify requires a snapshot origin (snapshot=/path)");
    }
  }

  if (selected.remote || !options->remote_addr.empty()) {
    // The remote server owns the origin: its snapshot, its shards, its
    // restriction scenario. Local origin keys are contradictions, not
    // composition.
    if (selected.snapshot || !options->snapshot.empty()) {
      return Status::InvalidArgument(
          "backend=remote contradicts snapshot= (the server owns the "
          "origin; pass --snapshot to wnw_serve instead)");
    }
    if (selected.shards || selected.partition || options->shards >= 1) {
      return Status::InvalidArgument(
          "backend=remote contradicts shards/partition (the server's origin "
          "is sharded via wnw_serve --shards; the handshake reports it)");
    }
  }

  // Persistent query cache: ?cache_file=/path loads the file when it exists
  // and saves it back on session close.
  const auto cache_it = config->params.find("cache_file");
  if (cache_it != config->params.end()) {
    if (cache_it->second.empty()) {
      return Status::InvalidArgument(
          "cache_file parameter needs a file path (cache_file=/path)");
    }
    if (!options->cache_file.empty() &&
        options->cache_file != cache_it->second) {
      return Status::InvalidArgument(
          "spec requests cache_file '" + cache_it->second +
          "' but SessionOptions already names '" + options->cache_file +
          "' — drop one of the two");
    }
    options->cache_file = cache_it->second;
    config->params.erase(cache_it);
  }

  uint64_t window = 0;
  uint64_t threads = 0;
  WNW_ASSIGN_OR_RETURN(const bool window_present,
                       PopUint(config, "window", &window));
  WNW_ASSIGN_OR_RETURN(const bool threads_present,
                       PopUint(config, "threads", &threads));
  if (threads_present && !window_present) {
    return Status::InvalidArgument(
        "executor parameter threads requires window");
  }
  AsyncOptions::Dispatch dispatch = AsyncOptions::Dispatch::kCompletion;
  const auto dispatch_it = config->params.find("dispatch");
  const bool dispatch_present = dispatch_it != config->params.end();
  if (dispatch_present) {
    if (dispatch_it->second == "completion") {
      dispatch = AsyncOptions::Dispatch::kCompletion;
    } else if (dispatch_it->second == "threads") {
      dispatch = AsyncOptions::Dispatch::kThreadPool;
    } else {
      return Status::InvalidArgument(
          "dispatch must be 'completion' or 'threads', got '" +
          dispatch_it->second + "'");
    }
    config->params.erase(dispatch_it);
    if (!window_present) {
      return Status::InvalidArgument(
          "executor parameter dispatch requires window");
    }
  }
  if (window_present) {
    if (window < 1 || window > 1024) {
      return Status::InvalidArgument("window must be in [1, 1024]");
    }
    if (threads > 256) {
      return Status::InvalidArgument("threads must be in [0, 256]");
    }
    options->async = AsyncOptions{.window = static_cast<int>(window),
                                  .threads = static_cast<int>(threads),
                                  .dispatch = dispatch};
    selected.executor = true;
  }
  return selected;
}

}  // namespace

// Exposed (declared in session.h) because RunWalkEngine resolves the same
// shared resources through the same single path before fanning walkers out
// over blocks.
Status ResolveSessionResources(const Graph* graph, SamplerConfig* config,
                               SessionOptions* options) {
  const std::string spec = config->ToSpec();  // before the keys are peeled
  auto selected_or = ExtractReservedParams(config, options);
  if (!selected_or.ok()) return selected_or.status();
  const ReservedSelections selected = *selected_or;
  if (selected.backend && options->backend != nullptr) {
    return Status::InvalidArgument(
        "spec '" + spec +
        "' selects a backend, but an explicit backend is already provided — "
        "drop one of the two");
  }
  if ((selected.shards || selected.partition) && options->backend != nullptr) {
    // A spec may *describe* the explicit sharded backend it runs against
    // (harness bookkeeping), but it must not contradict it — and it can
    // never shard a backend that was built unsharded. AsSharded() sees
    // through decorator wrappers.
    const ShardedBackend* sharded = options->backend->AsSharded();
    if (sharded == nullptr) {
      return Status::InvalidArgument(
          "spec '" + spec +
          "' requests a sharded origin (shards=" +
          std::to_string(options->shards) + "), but the explicit backend '" +
          std::string(options->backend->name()) +
          "' is not sharded — build it with BackendStackOptions::shards or "
          "drop the key");
    }
    if (selected.shards && sharded->num_shards() != options->shards) {
      return Status::InvalidArgument(
          "spec '" + spec + "' requests shards=" +
          std::to_string(options->shards) + " but the explicit backend '" +
          std::string(sharded->name()) + "' has " +
          std::to_string(sharded->num_shards()) + " shards");
    }
    if (selected.partition && sharded->partition() != options->partition) {
      return Status::InvalidArgument(
          "spec '" + spec + "' requests partition=" +
          std::string(ShardPartitionKey(options->partition)) +
          " but the explicit backend '" + std::string(sharded->name()) +
          "' was partitioned by " +
          std::string(ShardPartitionKey(sharded->partition())));
    }
  }
  if (!options->snapshot.empty() && options->backend != nullptr) {
    return Status::InvalidArgument(
        "spec or options select a snapshot origin ('" + options->snapshot +
        "'), but an explicit backend is already provided — drop one of the "
        "two");
  }
  if (!options->remote_addr.empty() && options->backend != nullptr) {
    return Status::InvalidArgument(
        "spec or options select a remote origin ('" + options->remote_addr +
        "'), but an explicit backend is already provided — drop one of the "
        "two");
  }
  if (!options->cache_file.empty() && options->query_cache != nullptr) {
    return Status::InvalidArgument(
        "cache_file ('" + options->cache_file +
        "') conflicts with an explicit query cache — attach the file to "
        "your cache with QueryCache::AttachFile instead");
  }
  if (selected.executor && options->executor != nullptr) {
    return Status::InvalidArgument(
        "spec '" + spec +
        "' sizes a fetch executor, but an explicit shared executor is "
        "already provided — drop one of the two");
  }
  if (options->async.has_value() && options->executor != nullptr) {
    return Status::InvalidArgument(
        "both async (build a private executor) and an explicit shared "
        "executor are set — drop one of the two");
  }
  if (options->executor == nullptr && options->async.has_value()) {
    options->executor = std::make_shared<CompletionExecutor>(*options->async);
  }
  options->async.reset();
  if (!options->cache_file.empty()) {
    // Materialize the persistent cache: bound to the file, warm when it
    // exists. The path is consumed so re-resolving (walker pools) is a
    // no-op; the cache itself remembers where to persist.
    // The topology handshake makes a persisted cache of a *different* graph
    // a loud cold start instead of silently served wrong neighbor lists.
    auto cache = std::make_shared<QueryCache>();
    WNW_RETURN_IF_ERROR(
        cache->AttachFile(options->cache_file, graph->TopologyChecksum()));
    options->query_cache = std::move(cache);
    options->cache_file.clear();
  }
  if (options->backend == nullptr && !options->remote_addr.empty()) {
    WNW_ASSIGN_OR_RETURN(
        std::shared_ptr<RemoteBackend> remote,
        RemoteBackend::Connect(options->remote_addr, options->remote));
    if (remote->num_nodes() != graph->num_nodes()) {
      return Status::InvalidArgument(
          "remote server '" + options->remote_addr + "' serves " +
          std::to_string(remote->num_nodes()) + " nodes but the graph has " +
          std::to_string(graph->num_nodes()) +
          " — is wnw_serve running a different snapshot?");
    }
    options->backend = std::move(remote);
    options->remote_addr.clear();  // consumed; re-resolving is a no-op
  }
  if (options->backend == nullptr) {
    const BackendStackOptions stack{.access = options->access,
                                    .latency = options->latency,
                                    .executor = options->executor,
                                    .shards = options->shards,
                                    .partition = options->partition,
                                    .snapshot = options->snapshot,
                                    .snapshot_verify =
                                        options->snapshot_verify};
    if (!options->snapshot.empty()) {
      WNW_ASSIGN_OR_RETURN(options->backend,
                           BuildSnapshotBackendStack(stack));
      options->snapshot.clear();  // consumed; re-resolving is a no-op
      if (options->backend->num_nodes() != graph->num_nodes()) {
        return Status::InvalidArgument(
            "snapshot '" + stack.snapshot + "' serves " +
            std::to_string(options->backend->num_nodes()) +
            " nodes but the graph has " +
            std::to_string(graph->num_nodes()) +
            " — was it built from a different graph?");
      }
    } else {
      options->backend = BuildBackendStack(graph, stack);
    }
  } else if (options->backend->num_nodes() != graph->num_nodes()) {
    return Status::InvalidArgument(
        "explicit backend serves " +
        std::to_string(options->backend->num_nodes()) +
        " nodes but the graph has " + std::to_string(graph->num_nodes()));
  }
  return Status::OK();
}

Result<std::unique_ptr<SamplingSession>> SamplingSession::Open(
    const Graph* graph, std::string_view spec, SessionOptions options) {
  WNW_ASSIGN_OR_RETURN(SamplerConfig config, SamplerConfig::Parse(spec));
  return Open(graph, config, options);
}

Result<std::unique_ptr<SamplingSession>> SamplingSession::Open(
    const Graph* graph, const SamplerConfig& config, SessionOptions options) {
  if (graph == nullptr || graph->num_nodes() == 0) {
    return Status::InvalidArgument("sampling session needs a non-empty graph");
  }
  // The sampler compiler validates every remaining parameter, so the
  // session-reserved keys are peeled off a copy first; the original config
  // (reserved params included) stays on the session for spec round-trips.
  SamplerConfig sampler_config = config;
  WNW_RETURN_IF_ERROR(ResolveSessionResources(graph, &sampler_config,
                                              &options));

  std::unique_ptr<TransitionDesign> design = MakeTransitionDesign(config.walk);
  if (design == nullptr) {
    return Status::InvalidArgument(
        "unknown walk design '" + config.walk +
        "' (expected srw | mhrw | lazy | maxdeg:<bound>)");
  }

  Rng rng(Mix64(options.seed));
  const uint64_t sampler_seed = rng.Next();
  NodeId start;
  if (options.start.has_value()) {
    start = *options.start;
    if (start >= graph->num_nodes()) {
      return Status::OutOfRange("start node " + std::to_string(start) +
                                " outside graph with " +
                                std::to_string(graph->num_nodes()) + " nodes");
    }
  } else {
    start = static_cast<NodeId>(rng.NextBounded(graph->num_nodes()));
  }

  // The session's walker runs in session mode: it owns an AccessInterface
  // over the resolved stack, whose meter is the session's cost telemetry.
  // Note: under kRandomSubset (non-deterministic responses) a provided
  // query_cache is simply never consulted — AccessInterface bypasses
  // caching entirely rather than erroring, so one harness config can span
  // restriction scenarios.
  const ProgramContext context{options.backend, options.query_cache,
                               options.executor};
  WNW_ASSIGN_OR_RETURN(std::unique_ptr<WalkerProgram> program,
                       SamplerRegistry::Global().Compile(
                           sampler_config, design.get(), context,
                           /*allow_flat=*/false));
  EngineWalker walker;
  walker.state.home = start;
  walker.rng = Rng(sampler_seed);
  WNW_RETURN_IF_ERROR(program->Init(walker));
  return std::unique_ptr<SamplingSession>(new SamplingSession(
      config, start, options.executor, std::move(design), std::move(program),
      std::move(walker)));
}

Status SamplingSession::PersistCache() {
  access().Wait();  // pending prefetches may still add entries
  const std::shared_ptr<QueryCache>& cache = access().query_cache();
  if (cache == nullptr) return Status::OK();
  return cache->Persist();
}

SamplingSession::~SamplingSession() {
  // Warm-start persistence: a cache bound to a file (cache_file= /
  // AttachFile) writes itself back when the session closes, so the next
  // run starts with this run's history. Destructors cannot return a
  // Status; callers needing the outcome call PersistCache() first (Persist
  // is idempotent — a clean cache is a no-op).
  const Status persisted = PersistCache();
  if (!persisted.ok()) {
    WNW_LOG(kWarning) << "query-cache persist failed: "
                      << persisted.ToString();
  }
}

Result<NodeId> SamplingSession::Draw() {
  walker_.out = &sample_;
  walker_.target = walker_.state.emitted + 1;
  ResumeOutcome outcome;
  do {
    WNW_ASSIGN_OR_RETURN(outcome, program_->Resume(walker_, nullptr));
  } while (outcome != ResumeOutcome::kDone);
  ++samples_drawn_;
  return sample_;
}

Status SamplingSession::DrawInto(std::vector<NodeId>* out, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    auto drawn = Draw();
    if (!drawn.ok()) return drawn.status();
    out->push_back(drawn.value());
  }
  return Status::OK();
}

SessionStats SamplingSession::Stats() const {
  SessionStats stats;
  stats.spec = config_.ToSpec();
  stats.sampler = std::string(program_->name());
  const AccessInterface& access = this->access();
  stats.backend = std::string(access.backend().name());
  const CostMeter& meter = access.meter();
  stats.query_cost = meter.unique_cost;
  stats.total_queries = meter.total_queries;
  stats.backend_fetches = meter.backend_fetches;
  stats.shared_cache_hits = meter.shared_cache_hits;
  stats.prefetch_batches = meter.prefetch_batches;
  stats.waited_seconds = meter.waited_seconds;
  stats.elapsed_seconds = timer_.ElapsedSeconds();
  stats.async_window = executor_ != nullptr ? executor_->window() : 0;
  stats.samples_drawn = samples_drawn_;
  if (const ShardedBackend* sharded = access.backend().AsSharded()) {
    stats.backend_shards = sharded->num_shards();
  }
  if (const RemoteBackend* remote = access.backend().AsRemote()) {
    stats.remote_addr = remote->address();
    stats.remote_rpcs = remote->rpcs();
    stats.remote_retries = remote->retries();
    stats.remote_bytes = remote->wire_bytes();
    // The shard topology lives server-side; surface it the same way the
    // in-process sharded stack does.
    stats.backend_shards = std::max(1, remote->origin_shards());
  }
  if (const std::shared_ptr<QueryCache>& cache = access.query_cache()) {
    stats.cache_attached = true;
    stats.cache_hits = cache->hits();
    stats.cache_misses = cache->misses();
    stats.cache_evictions = cache->evictions();
    stats.cache_entries = cache->size();
    stats.cache_file = cache->attached_file();
    stats.cache_stale_drops = cache->stale_drops();
  }
  stats.shard_fetches = meter.shard_fetches;
  stats.shard_stall_seconds = meter.shard_stall_seconds;
  // Sessions that never fetched have empty per-shard vectors; normalize so
  // consumers can always index [0, backend_shards).
  stats.shard_fetches.resize(static_cast<size_t>(stats.backend_shards), 0);
  stats.shard_stall_seconds.resize(static_cast<size_t>(stats.backend_shards),
                                   0.0);

  program_->Report(walker_, &stats);
  return stats;
}

// --- concurrent walker pools -------------------------------------------------

Result<WalkerPoolResult> RunWalkerPool(const Graph* graph,
                                       const SamplerConfig& config,
                                       const WalkerPoolOptions& options) {
  if (options.walkers < 1 || options.walkers > 64) {
    return Status::InvalidArgument("walker pool size must be in [1, 64]");
  }
  if (graph == nullptr || graph->num_nodes() == 0) {
    return Status::InvalidArgument("walker pool needs a non-empty graph");
  }
  // Resolve the shared resources ONCE — same single path Open uses — so
  // every walker shares one backend stack and one executor instead of
  // building private ones per session. Each walker's Open re-resolves the
  // already-materialized options, which is a no-op.
  SamplerConfig stripped = config;
  SessionOptions shared = options.session;
  WNW_RETURN_IF_ERROR(ResolveSessionResources(graph, &stripped, &shared));

  const size_t walkers = static_cast<size_t>(options.walkers);
  std::vector<std::unique_ptr<SamplingSession>> sessions;
  sessions.reserve(walkers);
  for (size_t w = 0; w < walkers; ++w) {
    SessionOptions session_opts = shared;
    session_opts.seed = Mix64(shared.seed ^ (0x3a1c0000u + w));
    WNW_ASSIGN_OR_RETURN(std::unique_ptr<SamplingSession> session,
                         SamplingSession::Open(graph, stripped, session_opts));
    sessions.push_back(std::move(session));
  }

  WalkerPoolResult result;
  result.samples.resize(walkers);
  std::vector<Status> statuses(walkers, Status::OK());
  Timer timer;
  ParallelFor(
      walkers,
      [&](size_t w) {
        result.samples[w].reserve(options.samples_per_walker);
        statuses[w] = sessions[w]->DrawInto(
            &result.samples[w], options.samples_per_walker);
      },
      options.walkers);
  result.elapsed_seconds = timer.ElapsedSeconds();
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  result.stats.reserve(walkers);
  for (const auto& session : sessions) {
    result.stats.push_back(session->Stats());
    // The walkers run the reserved-key-stripped config; report the caller's
    // full spec (window=/backend= included) so pool telemetry round-trips
    // like a directly opened session's does.
    result.stats.back().spec = config.ToSpec();
  }
  return result;
}

Result<WalkerPoolResult> RunWalkerPool(const Graph* graph,
                                       std::string_view spec,
                                       const WalkerPoolOptions& options) {
  WNW_ASSIGN_OR_RETURN(SamplerConfig config, SamplerConfig::Parse(spec));
  return RunWalkerPool(graph, config, options);
}

}  // namespace wnw
