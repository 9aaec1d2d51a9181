#include "core/registry.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/string_util.h"

namespace wnw {

namespace {

// Shortest decimal string that parses back to exactly `value`.
std::string FormatDouble(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;
  return std::string(buf, end);
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

}  // namespace

// --- SamplerConfig -----------------------------------------------------------

Result<SamplerConfig> SamplerConfig::Parse(std::string_view spec) {
  SamplerConfig config;
  const size_t query_pos = spec.find('?');
  std::string_view head = spec.substr(0, query_pos);

  // The walk spec may itself contain ':' (maxdeg:<bound>), so split on the
  // first colon only.
  const size_t colon = head.find(':');
  config.sampler = std::string(TrimString(head.substr(0, colon)));
  if (config.sampler.empty()) {
    return Status::InvalidArgument("sampler spec '" + std::string(spec) +
                                   "': empty sampler name");
  }
  if (colon != std::string_view::npos) {
    config.walk = std::string(TrimString(head.substr(colon + 1)));
    if (config.walk.empty()) {
      return Status::InvalidArgument("sampler spec '" + std::string(spec) +
                                     "': empty walk design after ':'");
    }
  }

  if (query_pos == std::string_view::npos) return config;
  std::string_view query = spec.substr(query_pos + 1);
  for (std::string_view pair : SplitString(query, "&")) {
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("sampler spec '" + std::string(spec) +
                                     "': parameter '" + std::string(pair) +
                                     "' is not key=value");
    }
    std::string key(TrimString(pair.substr(0, eq)));
    std::string value(TrimString(pair.substr(eq + 1)));
    if (key.empty() || value.empty()) {
      return Status::InvalidArgument("sampler spec '" + std::string(spec) +
                                     "': empty key or value in '" +
                                     std::string(pair) + "'");
    }
    if (!config.params.emplace(std::move(key), std::move(value)).second) {
      return Status::InvalidArgument("sampler spec '" + std::string(spec) +
                                     "': duplicate parameter '" +
                                     std::string(pair.substr(0, eq)) + "'");
    }
  }
  return config;
}

std::string SamplerConfig::ToSpec() const {
  std::string out = sampler + ":" + walk;
  char sep = '?';
  for (const auto& [key, value] : params) {
    out += sep;
    out += key;
    out += '=';
    out += value;
    sep = '&';
  }
  return out;
}

void SamplerConfig::Set(std::string key, std::string value) {
  params[std::move(key)] = std::move(value);
}

void SamplerConfig::SetInt(std::string key, int64_t value) {
  Set(std::move(key), std::to_string(value));
}

void SamplerConfig::SetUint(std::string key, uint64_t value) {
  Set(std::move(key), std::to_string(value));
}

void SamplerConfig::SetDouble(std::string key, double value) {
  Set(std::move(key), FormatDouble(value));
}

void SamplerConfig::SetBool(std::string key, bool value) {
  Set(std::move(key), value ? "1" : "0");
}

// --- ParamReader -------------------------------------------------------------

const std::string* ParamReader::Consume(std::string_view key) {
  const auto it = config_.params.find(key);
  if (it == config_.params.end()) return nullptr;
  consumed_.insert(it->first);
  return &it->second;
}

void ParamReader::Fail(std::string_view key, std::string_view expected) {
  if (!status_.ok()) return;  // keep the first error
  status_ = Status::InvalidArgument(
      "sampler '" + config_.sampler + "': parameter '" + std::string(key) +
      "=" + config_.params.find(key)->second + "' is not " +
      std::string(expected));
}

bool ParamReader::Read(std::string_view key, int* out) {
  const std::string* raw = Consume(key);
  if (raw == nullptr) return false;
  uint64_t v = 0;
  if (!ParseUint64(*raw, &v) || v > static_cast<uint64_t>(INT32_MAX)) {
    Fail(key, "a non-negative integer");
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ParamReader::Read(std::string_view key, uint64_t* out) {
  const std::string* raw = Consume(key);
  if (raw == nullptr) return false;
  if (!ParseUint64(*raw, out)) {
    Fail(key, "a non-negative integer");
    return false;
  }
  return true;
}

bool ParamReader::Read(std::string_view key, double* out) {
  const std::string* raw = Consume(key);
  if (raw == nullptr) return false;
  double v = 0.0;
  if (!ParseDouble(*raw, &v) || std::isnan(v)) {
    Fail(key, "a number");
    return false;
  }
  *out = v;
  return true;
}

bool ParamReader::Read(std::string_view key, bool* out) {
  const std::string* raw = Consume(key);
  if (raw == nullptr) return false;
  if (*raw == "1" || *raw == "true") {
    *out = true;
  } else if (*raw == "0" || *raw == "false") {
    *out = false;
  } else {
    Fail(key, "a boolean (0/1/true/false)");
    return false;
  }
  return true;
}

bool ParamReader::Read(std::string_view key, std::string* out) {
  const std::string* raw = Consume(key);
  if (raw == nullptr) return false;
  *out = *raw;
  return true;
}

Status ParamReader::Finish() const {
  if (!status_.ok()) return status_;
  for (const auto& [key, value] : config_.params) {
    if (!consumed_.contains(key)) {
      return Status::InvalidArgument("sampler '" + config_.sampler +
                                     "' does not take parameter '" + key +
                                     "'");
    }
  }
  return Status::OK();
}

// --- variants / bias ---------------------------------------------------------

std::string_view VariantKey(WalkEstimateVariant variant) {
  switch (variant) {
    case WalkEstimateVariant::kFull:
      return "full";
    case WalkEstimateVariant::kNone:
      return "none";
    case WalkEstimateVariant::kCrawlOnly:
      return "crawl";
    case WalkEstimateVariant::kWeightedOnly:
      return "weighted";
  }
  return "full";
}

Result<WalkEstimateVariant> ParseVariantKey(std::string_view key) {
  if (key == "full") return WalkEstimateVariant::kFull;
  if (key == "none") return WalkEstimateVariant::kNone;
  if (key == "crawl") return WalkEstimateVariant::kCrawlOnly;
  if (key == "weighted") return WalkEstimateVariant::kWeightedOnly;
  return Status::InvalidArgument("unknown variant '" + std::string(key) +
                                 "' (expected full|none|crawl|weighted)");
}

std::span<const ReservedKeyInfo> ReservedSessionKeys() {
  // Keep in sync with ExtractBackendParams in core/session.cc and with
  // docs/SPEC_STRINGS.md.
  static constexpr ReservedKeyInfo kReserved[] = {
      {"backend",
       "origin/decorator selection: memory (default) | latency | remote"},
      {"mean_ms", "mean simulated RTT per request, >= 0 (default 50)"},
      {"jitter_ms", "uniform RTT jitter, >= 0 (default 0)"},
      {"fail_rate", "per-attempt failure probability in [0, 1) (default 0)"},
      {"retry_ms", "simulated backoff before a retry, >= 0 (default 200)"},
      {"retries", "retry budget beyond the first attempt (default 64)"},
      {"net_seed", "latency/failure RNG seed (default 0xfeed)"},
      {"sleep_scale",
       "real-sleep factor: requests sleep simulated*scale wall-clock "
       "seconds, >= 0 (default 0 = accounting only)"},
      {"shards",
       "origin shards: vertex-partitioned ShardedBackend, each shard with "
       "its own lock/limiter/latency stack, in [1, 256] (absent = unsharded "
       "origin)"},
      {"partition",
       "shard partitioner: hash (default) | range | degree (requires "
       "shards)"},
      {"snapshot",
       "disk-backed origin: path to a wnw_snapshot file; the backend mmaps "
       "and serves it instead of the in-process graph (byte-identical "
       "responses; composes with latency/shards)"},
      {"snapshot_verify",
       "on (default) | off: off is the trusted-open fast path — skip the "
       "snapshot checksum scan and shard cross-check (requires snapshot)"},
      {"addr",
       "remote origin: host:port of a wnw_serve daemon (requires "
       "backend=remote; conflicts with snapshot/shards — the server owns "
       "the origin)"},
      {"deadline_ms",
       "remote per-request deadline in ms, > 0 (default 5000; requires "
       "backend=remote)"},
      {"connections",
       "remote connection-pool size, in [1, 64] (default 2; requires "
       "backend=remote)"},
      {"rpc_retries",
       "remote retry budget beyond the first attempt for transient "
       "failures, in [0, 100] (default 2; requires backend=remote)"},
      {"rpc_backoff_ms",
       "remote backoff before retry k: k * rpc_backoff_ms, >= 0 (default "
       "50; requires backend=remote)"},
      {"cache_file",
       "persistent query cache: snapshot-container file loaded at open "
       "when it exists (warm start) and saved back on session close"},
      {"window",
       "async fetch executor: max in-flight requests, in [1, 1024] "
       "(absent = synchronous fetching)"},
      {"threads",
       "executor worker threads, in [0, 256]; 0 sizes the pool to the "
       "window (requires window)"},
      {"engine",
       "execution engine: block runs the spec on the block-scheduled walk "
       "engine (RunWalkEngine / wnw_sample); plain SamplingSession::Open "
       "rejects it"},
      {"walkers",
       "block engine: logical walker count, >= 1 (default 64; requires "
       "engine=block)"},
      {"block",
       "block engine: nodes per scheduling block, >= 1 (default: graph-size "
       "derived; requires engine=block)"},
      {"residency_mb",
       "block engine: resident-byte budget in MiB for out-of-core paging of "
       "a snapshot-served graph (0 = unbudgeted, the default; advisory — "
       "cannot change samples; requires engine=block)"},
      {"prefetch",
       "block engine: scheduler picks prefetched ahead of the stepped "
       "block, in [0, 64] (default 2; requires engine=block and "
       "residency_mb)"},
  };
  return kReserved;
}

TargetBias BiasForWalkSpec(std::string_view walk_spec) {
  const std::string_view family = walk_spec.substr(0, walk_spec.find(':'));
  return family == "srw" || family == "lazy" ? TargetBias::kStationaryWeighted
                                             : TargetBias::kUniform;
}

// --- option <-> param codecs -------------------------------------------------

namespace {

void ReadBurnInParams(ParamReader& reader, BurnInOptions* options) {
  reader.Read("check_interval", &options->check_interval);
  reader.Read("min_steps", &options->min_steps);
  reader.Read("max_steps", &options->max_steps);
  reader.Read("geweke_first", &options->geweke.first_frac);
  reader.Read("geweke_last", &options->geweke.last_frac);
  reader.Read("geweke_threshold", &options->geweke.threshold);
  reader.Read("geweke_min", &options->geweke.min_samples);
}

void EncodeBurnInParams(const BurnInOptions& options, SamplerConfig* config) {
  const BurnInOptions defaults;
  if (options.check_interval != defaults.check_interval) {
    config->SetInt("check_interval", options.check_interval);
  }
  if (options.min_steps != defaults.min_steps) {
    config->SetInt("min_steps", options.min_steps);
  }
  if (options.max_steps != defaults.max_steps) {
    config->SetInt("max_steps", options.max_steps);
  }
  if (options.geweke.first_frac != defaults.geweke.first_frac) {
    config->SetDouble("geweke_first", options.geweke.first_frac);
  }
  if (options.geweke.last_frac != defaults.geweke.last_frac) {
    config->SetDouble("geweke_last", options.geweke.last_frac);
  }
  if (options.geweke.threshold != defaults.geweke.threshold) {
    config->SetDouble("geweke_threshold", options.geweke.threshold);
  }
  if (options.geweke.min_samples != defaults.geweke.min_samples) {
    config->SetUint("geweke_min", options.geweke.min_samples);
  }
}

Result<WalkEstimateOptions> ReadWalkEstimateParams(ParamReader& reader) {
  std::string variant_key(VariantKey(WalkEstimateVariant::kFull));
  reader.Read("variant", &variant_key);
  WNW_ASSIGN_OR_RETURN(WalkEstimateVariant variant,
                       ParseVariantKey(variant_key));
  WalkEstimateOptions options;
  ApplyVariant(variant, &options);
  reader.Read("walk_length", &options.walk_length);
  reader.Read("diameter", &options.diameter_bound);
  reader.Read("crawl_hops", &options.estimate.crawl_hops);
  // Explicit heuristic switches override the variant.
  reader.Read("crawl", &options.estimate.use_crawl);
  reader.Read("weighted", &options.estimate.use_weighted);
  reader.Read("epsilon", &options.estimate.epsilon);
  reader.Read("base_reps", &options.estimate.base_reps);
  reader.Read("max_extra_reps", &options.estimate.max_extra_reps);
  reader.Read("target_rse", &options.estimate.target_rse);
  if (reader.Read("scale", &options.rejection.manual_scale)) {
    options.rejection.mode = ScaleMode::kManual;
  }
  reader.Read("percentile", &options.rejection.percentile);
  reader.Read("max_candidates", &options.max_candidates_per_draw);
  return options;
}

void EncodeWalkEstimateParams(const WalkEstimateOptions& options,
                              WalkEstimateVariant variant,
                              SamplerConfig* config) {
  // The baseline is a default options struct with the same variant applied,
  // so only genuine overrides are emitted.
  WalkEstimateOptions defaults;
  ApplyVariant(variant, &defaults);
  if (variant != WalkEstimateVariant::kFull) {
    config->Set("variant", std::string(VariantKey(variant)));
  }
  if (options.walk_length != defaults.walk_length) {
    config->SetInt("walk_length", options.walk_length);
  }
  if (options.diameter_bound != defaults.diameter_bound) {
    config->SetInt("diameter", options.diameter_bound);
  }
  if (options.estimate.crawl_hops != defaults.estimate.crawl_hops) {
    config->SetInt("crawl_hops", options.estimate.crawl_hops);
  }
  if (options.estimate.use_crawl != defaults.estimate.use_crawl) {
    config->SetBool("crawl", options.estimate.use_crawl);
  }
  if (options.estimate.use_weighted != defaults.estimate.use_weighted) {
    config->SetBool("weighted", options.estimate.use_weighted);
  }
  if (options.estimate.epsilon != defaults.estimate.epsilon) {
    config->SetDouble("epsilon", options.estimate.epsilon);
  }
  if (options.estimate.base_reps != defaults.estimate.base_reps) {
    config->SetInt("base_reps", options.estimate.base_reps);
  }
  if (options.estimate.max_extra_reps != defaults.estimate.max_extra_reps) {
    config->SetInt("max_extra_reps", options.estimate.max_extra_reps);
  }
  if (options.estimate.target_rse != defaults.estimate.target_rse) {
    config->SetDouble("target_rse", options.estimate.target_rse);
  }
  if (options.rejection.mode == ScaleMode::kManual) {
    config->SetDouble("scale", options.rejection.manual_scale);
  } else if (options.rejection.percentile != defaults.rejection.percentile) {
    config->SetDouble("percentile", options.rejection.percentile);
  }
  if (options.max_candidates_per_draw != defaults.max_candidates_per_draw) {
    config->SetInt("max_candidates", options.max_candidates_per_draw);
  }
}

// --- built-in compilers ------------------------------------------------------

Result<std::unique_ptr<WalkerProgram>> CompileBurnIn(
    const SamplerConfig& config, const TransitionDesign* design,
    const ProgramContext& context, bool /*allow_flat*/) {
  ParamReader reader(config);
  BurnInOptions options;
  ReadBurnInParams(reader, &options);
  WNW_RETURN_IF_ERROR(reader.Finish());
  return MakeBurnInProgram(options, design, context);
}

Result<std::unique_ptr<WalkerProgram>> CompileLongRun(
    const SamplerConfig& config, const TransitionDesign* design,
    const ProgramContext& context, bool /*allow_flat*/) {
  ParamReader reader(config);
  LongRunOptions options;
  ReadBurnInParams(reader, &options.burn_in);
  reader.Read("thinning", &options.thinning);
  WNW_RETURN_IF_ERROR(reader.Finish());
  return MakeLongRunProgram(options, design, context);
}

Result<std::unique_ptr<WalkerProgram>> CompileFixedWalk(
    const SamplerConfig& config, const TransitionDesign* design,
    const ProgramContext& context, bool allow_flat) {
  ParamReader reader(config);
  FixedWalkOptions options;
  reader.Read("steps", &options.steps);
  WNW_RETURN_IF_ERROR(reader.Finish());
  return MakeFixedWalkProgram(options, design, context, allow_flat);
}

Result<std::unique_ptr<WalkerProgram>> CompileWalkEstimate(
    const SamplerConfig& config, const TransitionDesign* design,
    const ProgramContext& context, bool /*allow_flat*/) {
  ParamReader reader(config);
  WNW_ASSIGN_OR_RETURN(const WalkEstimateOptions options,
                       ReadWalkEstimateParams(reader));
  WNW_RETURN_IF_ERROR(reader.Finish());
  return MakeWalkEstimateProgram(options, design, context);
}

Result<std::unique_ptr<WalkerProgram>> CompileWalkEstimatePath(
    const SamplerConfig& config, const TransitionDesign* design,
    const ProgramContext& context, bool /*allow_flat*/) {
  ParamReader reader(config);
  WalkEstimatePathOptions options;
  WNW_ASSIGN_OR_RETURN(options.base, ReadWalkEstimateParams(reader));
  reader.Read("min_step", &options.min_candidate_step);
  reader.Read("stride", &options.stride);
  reader.Read("max_walks", &options.max_walks_per_draw);
  WNW_RETURN_IF_ERROR(reader.Finish());
  return MakeWalkEstimatePathProgram(options, design, context);
}

}  // namespace

// --- config builders ---------------------------------------------------------

SamplerConfig MakeBurnInConfig(std::string walk,
                               const BurnInOptions& options) {
  SamplerConfig config;
  config.sampler = "burnin";
  config.walk = std::move(walk);
  EncodeBurnInParams(options, &config);
  return config;
}

SamplerConfig MakeLongRunConfig(std::string walk,
                                const LongRunOptions& options) {
  SamplerConfig config;
  config.sampler = "longrun";
  config.walk = std::move(walk);
  EncodeBurnInParams(options.burn_in, &config);
  const LongRunOptions defaults;
  if (options.thinning != defaults.thinning) {
    config.SetInt("thinning", options.thinning);
  }
  return config;
}

SamplerConfig MakeWalkEstimateConfig(std::string walk,
                                     WalkEstimateOptions options,
                                     WalkEstimateVariant variant) {
  SamplerConfig config;
  config.sampler = "we";
  config.walk = std::move(walk);
  ApplyVariant(variant, &options);
  EncodeWalkEstimateParams(options, variant, &config);
  return config;
}

SamplerConfig MakeWalkEstimatePathConfig(
    std::string walk, const WalkEstimatePathOptions& options) {
  SamplerConfig config;
  config.sampler = "we-path";
  config.walk = std::move(walk);
  EncodeWalkEstimateParams(options.base, WalkEstimateVariant::kFull, &config);
  const WalkEstimatePathOptions defaults;
  if (options.min_candidate_step != defaults.min_candidate_step) {
    config.SetInt("min_step", options.min_candidate_step);
  }
  if (options.stride != defaults.stride) {
    config.SetInt("stride", options.stride);
  }
  if (options.max_walks_per_draw != defaults.max_walks_per_draw) {
    config.SetInt("max_walks", options.max_walks_per_draw);
  }
  return config;
}

// --- SamplerRegistry ---------------------------------------------------------

SamplerRegistry& SamplerRegistry::Global() {
  static SamplerRegistry* registry = [] {
    auto* r = new SamplerRegistry();
    (void)r->Register(
        "burnin",
        {"random walk + Geweke burn-in, one sample per walk "
         "(check_interval, min_steps, max_steps, geweke_*)",
         CompileBurnIn});
    (void)r->Register(
        "longrun",
        {"burn in once, then every visited node is a sample "
         "(thinning + all burnin options)",
         CompileLongRun});
    (void)r->Register(
        "we",
        {"WALK-ESTIMATE, no burn-in (variant=full|none|crawl|weighted, "
         "diameter, walk_length, crawl_hops, epsilon, base_reps, "
         "max_extra_reps, target_rse, percentile, scale, max_candidates)",
         CompileWalkEstimate});
    (void)r->Register(
        "walk",
        {"fixed-length walk chain: advance the persistent walk by `steps` "
         "design steps per draw, the landing node is the sample (steps)",
         CompileFixedWalk});
    (void)r->Register(
        "we-path",
        {"WALK-ESTIMATE over whole walk paths, several samples per walk "
         "(min_step, stride, max_walks + all we options)",
         CompileWalkEstimatePath});
    return r;
  }();
  return *registry;
}

Status SamplerRegistry::Register(std::string name, Entry entry) {
  if (name.empty() || entry.compile == nullptr) {
    return Status::InvalidArgument("sampler registration needs a name and "
                                   "a compiler");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!entries_.emplace(std::move(name), std::move(entry)).second) {
    return Status::FailedPrecondition("sampler already registered");
  }
  return Status::OK();
}

bool SamplerRegistry::Contains(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> SamplerRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

std::string SamplerRegistry::Summary(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  return it == entries_.end() ? "" : it->second.summary;
}

Result<std::unique_ptr<WalkerProgram>> SamplerRegistry::Compile(
    const SamplerConfig& config, const TransitionDesign* design,
    const ProgramContext& context, bool allow_flat) const {
  Compiler compile;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(config.sampler);
    if (it == entries_.end()) {
      std::vector<std::string> names;
      for (const auto& [name, entry] : entries_) names.push_back(name);
      return Status::NotFound("unknown sampler '" + config.sampler +
                              "' (registered: " + JoinNames(names) + ")");
    }
    compile = it->second.compile;
  }
  return compile(config, design, context, allow_flat);
}

}  // namespace wnw
