// wnw_sample: command-line node sampler over an edge-list graph or a
// built-in synthetic dataset, exercising the library end to end.
//
// The sampler is chosen with a registry spec string:
//   <sampler>[:<walk>][?key=value&...]
// e.g. "we:mhrw", "we:mhrw?variant=crawl&diameter=10",
//      "burnin:srw?max_steps=20000", "longrun:srw?thinning=4", "we-path:mhrw"
//
// Usage:
//   wnw_sample [--graph FILE | --dataset ba:N,M|gplus|yelp|twitter|small]
//              [--spec SPEC] [--samples N] [--seed S] [--scale X]
//              [--diameter-bound D] [--estimate-degree] [--quiet] [--json]
//              [--cache_file FILE]
//
// Examples:
//   wnw_sample --dataset ba:20000,5 --spec we:mhrw --samples 100
//   wnw_sample --graph my_edges.txt --spec "burnin:srw?max_steps=5000" \
//              --samples 50 --estimate-degree
//   wnw_sample --dataset small --samples 20 --json \
//              --spec "we:mhrw?backend=latency&mean_ms=50"
//   wnw_sample --dataset small --samples 20 \
//              --spec "we:mhrw?snapshot=small.snap"   # mmap'd origin
//   wnw_sample --dataset small --samples 20 --cache_file warm.wnwcache
//   wnw_sample --dataset ba:20000,5 --samples 4096 --json \
//              --spec "walk:srw?steps=8&engine=block&walkers=1024"
//
// --cache_file FILE persists the query cache across runs: the file is
// loaded when it exists (a warm start pays no queries for nodes any earlier
// run already fetched) and written back before exit.
//
// --json replaces the per-line sample output with one JSON object on stdout
// ({"spec", "samples": [...], "stats": {...}}) for scripting; diagnostics
// stay on stderr.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/registry.h"
#include "core/session.h"
#include "datasets/social_datasets.h"
#include "engine/walk_engine.h"
#include "estimation/aggregates.h"
#include "graph/algorithms.h"
#include "graph/io.h"
#include "util/string_util.h"

namespace {

using namespace wnw;

struct Args {
  std::string graph_path;
  std::string dataset = "ba:10000,5";
  std::string spec = "we:srw";
  std::string cache_file;
  uint64_t samples = 100;
  uint64_t seed = 20260611;
  double scale = 0.25;
  int diameter_bound = 0;  // 0 = estimate via double sweep
  bool estimate_degree = false;
  bool quiet = false;
  bool json = false;
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: wnw_sample [--graph FILE | --dataset SPEC] [--spec SAMPLER]\n"
      "                  [--samples N] [--seed S] [--scale X]\n"
      "                  [--diameter-bound D] [--estimate-degree] [--quiet]\n"
      "                  [--json] [--cache_file FILE]\n"
      "dataset SPEC: ba:N,M | rand:N,M | gplus | yelp | twitter | small\n"
      "sampler SPEC: <sampler>[:<walk>][?key=value&...], "
      "walk = srw|mhrw|lazy|maxdeg:<bound>\n"
      "registered samplers:\n");
  for (const auto& name : SamplerRegistry::Global().Names()) {
    std::fprintf(stderr, "  %-8s %s\n", name.c_str(),
                 SamplerRegistry::Global().Summary(name).c_str());
  }
  std::fprintf(stderr,
               "session-reserved spec keys (backend + async executor):\n");
  for (const ReservedKeyInfo& info : ReservedSessionKeys()) {
    std::fprintf(stderr, "  %-12.*s %.*s\n",
                 static_cast<int>(info.key.size()), info.key.data(),
                 static_cast<int>(info.summary.size()), info.summary.data());
  }
  std::fprintf(stderr,
               "full spec reference (keys, defaults, valid ranges): "
               "docs/SPEC_STRINGS.md\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--graph") {
      const char* v = next();
      if (v == nullptr) return false;
      args->graph_path = v;
    } else if (flag == "--dataset") {
      const char* v = next();
      if (v == nullptr) return false;
      args->dataset = v;
    } else if (flag == "--spec") {
      const char* v = next();
      if (v == nullptr) return false;
      args->spec = v;
    } else if (flag == "--samples") {
      const char* v = next();
      if (v == nullptr || !ParseUint64(v, &args->samples)) return false;
    } else if (flag == "--seed") {
      const char* v = next();
      if (v == nullptr || !ParseUint64(v, &args->seed)) return false;
    } else if (flag == "--scale") {
      const char* v = next();
      if (v == nullptr || !ParseDouble(v, &args->scale)) return false;
    } else if (flag == "--diameter-bound") {
      const char* v = next();
      uint64_t d = 0;
      if (v == nullptr || !ParseUint64(v, &d)) return false;
      args->diameter_bound = static_cast<int>(d);
    } else if (flag == "--cache_file") {
      const char* v = next();
      if (v == nullptr) return false;
      args->cache_file = v;
    } else if (flag == "--estimate-degree") {
      args->estimate_degree = true;
    } else if (flag == "--quiet") {
      args->quiet = true;
    } else if (flag == "--json") {
      args->json = true;
    } else if (flag == "--help" || flag == "-h") {
      PrintUsage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

Result<Graph> LoadInputGraph(const Args& args) {
  if (!args.graph_path.empty()) {
    WNW_ASSIGN_OR_RETURN(LoadedGraph loaded, LoadEdgeList(args.graph_path));
    // Walk-based sampling needs one connected piece.
    WNW_ASSIGN_OR_RETURN(Subgraph lcc, LargestComponent(loaded.graph));
    return std::move(lcc.graph);
  }
  const Result<DatasetSpec> parametric = ParseDatasetSpec(args.dataset);
  if (parametric.ok()) return parametric->Build(args.seed);
  if (parametric.status().code() != StatusCode::kNotFound) {
    return parametric.status();
  }
  if (args.dataset == "gplus") {
    return MakeGPlusLike(args.scale, args.seed).graph;
  }
  if (args.dataset == "yelp") {
    return MakeYelpLike(args.scale, args.seed, false).graph;
  }
  if (args.dataset == "twitter") {
    return MakeTwitterLike(args.scale, args.seed, false).graph;
  }
  if (args.dataset == "small") {
    return MakeSmallScaleFree(args.seed).graph;
  }
  return Status::InvalidArgument("unknown dataset: " + args.dataset);
}

// Emits samples plus the full SessionStats as one JSON object. Spec strings
// contain no characters needing escapes beyond quotes/backslashes (enforced
// by escaping anyway, for arbitrary registry names).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void PrintJson(const SessionStats& stats, const std::vector<NodeId>& samples) {
  std::printf("{\n  \"spec\": \"%s\",\n", JsonEscape(stats.spec).c_str());
  std::printf("  \"samples\": [");
  for (size_t i = 0; i < samples.size(); ++i) {
    std::printf("%s%u", i == 0 ? "" : ", ", samples[i]);
  }
  std::printf("],\n");
  std::printf("  \"stats\": {\n");
  std::printf("    \"sampler\": \"%s\",\n", JsonEscape(stats.sampler).c_str());
  std::printf("    \"backend\": \"%s\",\n", JsonEscape(stats.backend).c_str());
  std::printf("    \"samples_drawn\": %llu,\n",
              static_cast<unsigned long long>(stats.samples_drawn));
  std::printf("    \"query_cost\": %llu,\n",
              static_cast<unsigned long long>(stats.query_cost));
  std::printf("    \"total_queries\": %llu,\n",
              static_cast<unsigned long long>(stats.total_queries));
  std::printf("    \"backend_fetches\": %llu,\n",
              static_cast<unsigned long long>(stats.backend_fetches));
  std::printf("    \"shared_cache_hits\": %llu,\n",
              static_cast<unsigned long long>(stats.shared_cache_hits));
  std::printf("    \"prefetch_batches\": %llu,\n",
              static_cast<unsigned long long>(stats.prefetch_batches));
  std::printf("    \"waited_seconds\": %.6f,\n", stats.waited_seconds);
  std::printf("    \"elapsed_seconds\": %.6f,\n", stats.elapsed_seconds);
  std::printf("    \"async_window\": %d,\n", stats.async_window);
  std::printf("    \"backend_shards\": %d,\n", stats.backend_shards);
  std::printf("    \"shard_fetches\": [");
  for (size_t i = 0; i < stats.shard_fetches.size(); ++i) {
    std::printf("%s%llu", i == 0 ? "" : ", ",
                static_cast<unsigned long long>(stats.shard_fetches[i]));
  }
  std::printf("],\n");
  std::printf("    \"shard_stall_seconds\": [");
  for (size_t i = 0; i < stats.shard_stall_seconds.size(); ++i) {
    std::printf("%s%.6f", i == 0 ? "" : ", ", stats.shard_stall_seconds[i]);
  }
  std::printf("],\n");
  std::printf("    \"remote_addr\": \"%s\",\n",
              JsonEscape(stats.remote_addr).c_str());
  std::printf("    \"remote_rpcs\": %llu,\n",
              static_cast<unsigned long long>(stats.remote_rpcs));
  std::printf("    \"remote_retries\": %llu,\n",
              static_cast<unsigned long long>(stats.remote_retries));
  std::printf("    \"remote_bytes\": %llu,\n",
              static_cast<unsigned long long>(stats.remote_bytes));
  std::printf("    \"cache_attached\": %s,\n",
              stats.cache_attached ? "true" : "false");
  std::printf("    \"cache_hits\": %llu,\n",
              static_cast<unsigned long long>(stats.cache_hits));
  std::printf("    \"cache_misses\": %llu,\n",
              static_cast<unsigned long long>(stats.cache_misses));
  std::printf("    \"cache_evictions\": %llu,\n",
              static_cast<unsigned long long>(stats.cache_evictions));
  std::printf("    \"cache_entries\": %llu,\n",
              static_cast<unsigned long long>(stats.cache_entries));
  std::printf("    \"cache_file\": \"%s\",\n",
              JsonEscape(stats.cache_file).c_str());
  std::printf("    \"cache_stale_drops\": %llu,\n",
              static_cast<unsigned long long>(stats.cache_stale_drops));
  std::printf("    \"engine_walkers\": %llu,\n",
              static_cast<unsigned long long>(stats.engine_walkers));
  std::printf("    \"engine_blocks\": %llu,\n",
              static_cast<unsigned long long>(stats.engine_blocks));
  std::printf("    \"engine_block_switches\": %llu,\n",
              static_cast<unsigned long long>(stats.engine_block_switches));
  std::printf("    \"engine_steps\": %llu,\n",
              static_cast<unsigned long long>(stats.engine_steps));
  std::printf("    \"engine_steps_per_sec\": %.3f,\n",
              stats.engine_steps_per_sec);
  std::printf("    \"engine_bytes_scanned\": %llu,\n",
              static_cast<unsigned long long>(stats.engine_bytes_scanned));
  std::printf("    \"engine_resident_peak\": %llu,\n",
              static_cast<unsigned long long>(stats.engine_resident_peak));
  std::printf("    \"engine_residency_budget\": %llu,\n",
              static_cast<unsigned long long>(stats.engine_residency_budget));
  std::printf(
      "    \"engine_residency_peak_bytes\": %llu,\n",
      static_cast<unsigned long long>(stats.engine_residency_peak_bytes));
  std::printf(
      "    \"engine_residency_prefetches\": %llu,\n",
      static_cast<unsigned long long>(stats.engine_residency_prefetches));
  std::printf(
      "    \"engine_residency_releases\": %llu,\n",
      static_cast<unsigned long long>(stats.engine_residency_releases));
  std::printf("    \"last_burn_in\": %d,\n", stats.last_burn_in);
  std::printf("    \"average_burn_in\": %.6f,\n", stats.average_burn_in);
  std::printf("    \"burned_in\": %s,\n", stats.burned_in ? "true" : "false");
  std::printf("    \"candidates_tried\": %llu,\n",
              static_cast<unsigned long long>(stats.candidates_tried));
  std::printf("    \"samples_accepted\": %llu,\n",
              static_cast<unsigned long long>(stats.samples_accepted));
  std::printf("    \"acceptance_rate\": %.6f,\n", stats.acceptance_rate);
  std::printf("    \"forward_steps\": %llu,\n",
              static_cast<unsigned long long>(stats.forward_steps));
  std::printf("    \"backward_walks\": %llu,\n",
              static_cast<unsigned long long>(stats.backward_walks));
  std::printf("    \"walks_run\": %llu,\n",
              static_cast<unsigned long long>(stats.walks_run));
  std::printf("    \"samples_per_walk\": %.6f\n", stats.samples_per_walk);
  std::printf("  }\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }

  auto graph_result = LoadInputGraph(args);
  if (!graph_result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 graph_result.status().ToString().c_str());
    return 1;
  }
  const Graph graph = std::move(graph_result).value();
  std::fprintf(stderr, "graph: %s\n", graph.DebugString().c_str());

  auto config_result = SamplerConfig::Parse(args.spec);
  if (!config_result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 config_result.status().ToString().c_str());
    PrintUsage();
    return 2;
  }
  SamplerConfig config = std::move(config_result).value();

  // WALK-ESTIMATE family: fill in the diameter bound when the spec does not
  // pin one, from --diameter-bound or a double-sweep estimate.
  if (config.sampler.rfind("we", 0) == 0 && !config.params.contains("diameter")) {
    int diameter_bound = args.diameter_bound;
    if (diameter_bound == 0) {
      Rng rng(args.seed + 1);
      diameter_bound = static_cast<int>(
          EstimateDiameterDoubleSweep(graph, rng).value_or(10));
      std::fprintf(stderr, "diameter bound (double sweep): %d\n",
                   diameter_bound);
    }
    config.SetInt("diameter", diameter_bound);
  }

  // engine=block in the spec routes the whole run through the block
  // scheduler instead of a single sampling session: --samples is spread
  // over the spec's walker count (samples_per_walker = ceil(samples /
  // walkers)), and the engine/walkers/block keys are consumed by
  // RunWalkEngine itself.
  if (config.params.contains("engine")) {
    uint64_t walkers = EngineOptions{}.walkers;
    if (const auto it = config.params.find("walkers");
        it != config.params.end()) {
      if (!ParseUint64(it->second, &walkers) || walkers < 1) {
        std::fprintf(stderr, "error: bad walkers '%s'\n",
                     it->second.c_str());
        return 2;
      }
    }
    EngineOptions engine_opts;
    engine_opts.samples_per_walker =
        std::max<uint64_t>(1, (args.samples + walkers - 1) / walkers);
    engine_opts.session.seed = args.seed + 2;
    engine_opts.session.cache_file = args.cache_file;
    const auto run = RunWalkEngine(&graph, config, engine_opts);
    if (!run.ok()) {
      std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
      PrintUsage();
      return 2;
    }
    if (args.estimate_degree) {
      std::fprintf(stderr,
                   "note: --estimate-degree needs a session's bias map; "
                   "ignored under engine=block\n");
    }
    if (args.json) {
      PrintJson(run->stats, run->samples);
    } else {
      if (!args.quiet) {
        for (const NodeId v : run->samples) std::printf("%u\n", v);
      }
      std::fprintf(
          stderr,
          "engine: %llu walkers over %llu blocks  %llu steps "
          "(%.0f steps/sec, %llu block switches)\n"
          "drawn: %llu samples  query cost: %llu unique nodes "
          "(%llu API calls)\n",
          static_cast<unsigned long long>(run->stats.engine_walkers),
          static_cast<unsigned long long>(run->stats.engine_blocks),
          static_cast<unsigned long long>(run->stats.engine_steps),
          run->stats.engine_steps_per_sec,
          static_cast<unsigned long long>(run->stats.engine_block_switches),
          static_cast<unsigned long long>(run->stats.samples_drawn),
          static_cast<unsigned long long>(run->stats.query_cost),
          static_cast<unsigned long long>(run->stats.total_queries));
    }
    return 0;
  }

  SessionOptions session_opts;
  session_opts.seed = args.seed + 2;
  session_opts.cache_file = args.cache_file;  // "" = no persistent cache
  auto session_result = SamplingSession::Open(&graph, config, session_opts);
  if (!session_result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 session_result.status().ToString().c_str());
    PrintUsage();
    return 2;
  }
  SamplingSession& session = **session_result;
  std::fprintf(stderr, "sampler: %s (start node %u)\n",
               session.config().ToSpec().c_str(), session.start());

  std::vector<NodeId> samples;
  samples.reserve(args.samples);
  while (samples.size() < args.samples) {
    const auto s = session.Draw();
    if (!s.ok()) {
      std::fprintf(stderr, "draw failed: %s\n", s.status().ToString().c_str());
      break;
    }
    samples.push_back(s.value());
    if (!args.quiet && !args.json) std::printf("%u\n", s.value());
  }

  // Persist the query cache before reading Stats() so the reported state is
  // what the next run will load; surface failures loudly (the destructor
  // would only log them).
  const Status persisted = session.PersistCache();
  if (!persisted.ok()) {
    std::fprintf(stderr, "error: %s\n", persisted.ToString().c_str());
    return 1;
  }

  const SessionStats stats = session.Stats();
  if (args.json) {
    PrintJson(stats, samples);
    return 0;
  }
  std::fprintf(stderr,
               "drawn: %llu samples  query cost: %llu unique nodes "
               "(%llu API calls)\n",
               static_cast<unsigned long long>(stats.samples_drawn),
               static_cast<unsigned long long>(stats.query_cost),
               static_cast<unsigned long long>(stats.total_queries));
  if (stats.backend_shards > 1) {
    std::fprintf(stderr, "origin shards: %d  fetches by shard:",
                 stats.backend_shards);
    for (uint64_t f : stats.shard_fetches) {
      std::fprintf(stderr, " %llu", static_cast<unsigned long long>(f));
    }
    std::fprintf(stderr, "\n");
  }
  if (!stats.remote_addr.empty()) {
    std::fprintf(
        stderr, "remote: %s  rpcs: %llu  retries: %llu  wire bytes: %llu\n",
        stats.remote_addr.c_str(),
        static_cast<unsigned long long>(stats.remote_rpcs),
        static_cast<unsigned long long>(stats.remote_retries),
        static_cast<unsigned long long>(stats.remote_bytes));
  }
  if (stats.cache_attached) {
    std::fprintf(stderr,
                 "query cache: %llu entries  hits %llu  misses %llu  "
                 "evictions %llu%s%s\n",
                 static_cast<unsigned long long>(stats.cache_entries),
                 static_cast<unsigned long long>(stats.cache_hits),
                 static_cast<unsigned long long>(stats.cache_misses),
                 static_cast<unsigned long long>(stats.cache_evictions),
                 stats.cache_file.empty() ? "" : "  file ",
                 stats.cache_file.c_str());
  }
  if (stats.candidates_tried > 0) {
    std::fprintf(stderr, "acceptance rate: %.3f (%llu candidates)\n",
                 stats.acceptance_rate,
                 static_cast<unsigned long long>(stats.candidates_tried));
  }
  if (stats.average_burn_in > 0) {
    std::fprintf(stderr, "average burn-in: %.1f steps\n",
                 stats.average_burn_in);
  }
  if (args.estimate_degree && !samples.empty()) {
    const double est = EstimateAverage(
        samples, session.bias(),
        [&](NodeId u) { return static_cast<double>(graph.Degree(u)); },
        [&](NodeId u) { return static_cast<double>(graph.Degree(u)); });
    std::fprintf(stderr, "avg degree estimate: %.4f (true %.4f)\n", est,
                 graph.average_degree());
  }
  return 0;
}
