// Golden outputs for every registry sampler × transition design. Each case
// folds, at fixed seeds, into one FNV-1a hash:
//
//   - the samples, query_cost and total_queries of a SamplingSession (on an
//     unrestricted backend and on a truncated one);
//   - the per-walker samples, query_cost and total_queries of RunWalkEngine
//     on an unrestricted backend (flat mode for `walk`) and on a truncated
//     backend (which forces every sampler into session mode).
//
// The constants pin behaviour, not just agreement between the access paths:
// a refactor that changes an RNG call order, a billing rule, or a sampler's
// control flow changes a hash here even when it changes every path alike.
// Regenerate only for a deliberate behaviour change, and say so.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "engine/walk_engine.h"
#include "test_util.h"

namespace wnw {
namespace {

constexpr uint64_t kSeed = 4242;
constexpr int kSessionDraws = 6;
constexpr uint64_t kWalkers = 5;
constexpr uint64_t kSamplesPerWalker = 3;
constexpr uint32_t kMaxDegBound = 64;

class Fnv1a {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct GoldenCase {
  const char* sampler;
  const char* params;  // spec query string, without '?'
  const char* design;
  uint64_t hash;
};

// One representative spec per registered sampler (small caps keep the suite
// fast) crossed with the four built-in designs.
const GoldenCase kGolden[] = {
    {"walk", "steps=5", "srw", 0x91468d4f59fa00f7ull},
    {"walk", "steps=5", "mhrw", 0xdf06c1a724fad5d1ull},
    {"walk", "steps=5", "lazy", 0x748a940b08ec6287ull},
    {"walk", "steps=5", "maxdeg:64", 0xf12a957b7c46ba43ull},
    {"burnin", "max_steps=300", "srw", 0x99feca2c7acf9028ull},
    {"burnin", "max_steps=300", "mhrw", 0x31635eb0ebaeeab2ull},
    {"burnin", "max_steps=300", "lazy", 0xd47f875a30dbcbc3ull},
    {"burnin", "max_steps=300", "maxdeg:64", 0x99ab8ea6426b556cull},
    {"longrun", "thinning=3&max_steps=300", "srw", 0x323e22d5c4f49244ull},
    {"longrun", "thinning=3&max_steps=300", "mhrw", 0xeb8d39e771a187f7ull},
    {"longrun", "thinning=3&max_steps=300", "lazy", 0x39027185d4706039ull},
    {"longrun", "thinning=3&max_steps=300", "maxdeg:64",
     0x2cefb55bff7249f2ull},
    {"we", "diameter=2", "srw", 0x6de0607f3bc34f96ull},
    {"we", "diameter=2", "mhrw", 0x8f9776b31c798455ull},
    {"we", "diameter=2", "lazy", 0x3f697bec7f214ef0ull},
    {"we", "diameter=2", "maxdeg:64", 0x7d3c8d7e0aed95a9ull},
    {"we-path", "diameter=2", "srw", 0x4a0def5175391078ull},
    {"we-path", "diameter=2", "mhrw", 0x9fa6c38f1621abd5ull},
    {"we-path", "diameter=2", "lazy", 0xd942151457b6f287ull},
    {"we-path", "diameter=2", "maxdeg:64", 0xb1d4016d666a5a7dull},
};

std::string SpecOf(const GoldenCase& c) {
  return std::string(c.sampler) + ":" + c.design + "?" + c.params;
}

SessionOptions BaseSession(bool truncated) {
  SessionOptions options;
  options.seed = kSeed;
  if (truncated) {
    options.access.restriction = NeighborRestriction::kTruncated;
    options.access.max_neighbors = 3;
  }
  return options;
}

void HashSession(const Graph& graph, const std::string& spec, bool truncated,
                 Fnv1a* hash) {
  auto session = SamplingSession::Open(&graph, spec, BaseSession(truncated));
  ASSERT_TRUE(session.ok()) << spec << ": " << session.status().ToString();
  for (int i = 0; i < kSessionDraws; ++i) {
    const Result<NodeId> drawn = (*session)->Draw();
    ASSERT_TRUE(drawn.ok()) << spec << ": " << drawn.status().ToString();
    hash->Add(*drawn);
  }
  const SessionStats stats = (*session)->Stats();
  hash->Add(stats.query_cost);
  hash->Add(stats.total_queries);
}

void HashEngine(const Graph& graph, const std::string& spec, bool truncated,
                Fnv1a* hash) {
  EngineOptions options;
  options.walkers = kWalkers;
  options.samples_per_walker = kSamplesPerWalker;
  options.threads = 2;
  options.block_nodes = 32;
  options.session = BaseSession(truncated);
  const auto engine = RunWalkEngine(&graph, spec, options);
  ASSERT_TRUE(engine.ok()) << spec << ": " << engine.status().ToString();
  for (size_t w = 0; w < kWalkers; ++w) {
    for (const NodeId v : engine->SamplesFor(w)) hash->Add(v);
    hash->Add(engine->walker_stats[w].query_cost);
    hash->Add(engine->walker_stats[w].total_queries);
  }
}

uint64_t GoldenHash(const Graph& graph, const GoldenCase& c) {
  const std::string spec = SpecOf(c);
  Fnv1a hash;
  for (const bool truncated : {false, true}) {
    HashSession(graph, spec, truncated, &hash);
    HashEngine(graph, spec, truncated, &hash);
  }
  return hash.value();
}

TEST(Golden, DegreeBoundCoversTheGraph) {
  const Graph graph = testing::MakeTestBA(300, 3);
  EXPECT_LE(graph.max_degree(), kMaxDegBound)
      << "maxdeg:" << kMaxDegBound << " must bound every degree";
}

TEST(Golden, EverySpecAndDesignMatchesItsPinnedHash) {
  const Graph graph = testing::MakeTestBA(300, 3);
  for (const GoldenCase& c : kGolden) {
    const uint64_t got = GoldenHash(graph, c);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(got, c.hash) << SpecOf(c) << ": got 0x" << std::hex << got;
  }
}

TEST(Golden, TableCoversEveryRegisteredSampler) {
  std::vector<std::string> names = SamplerRegistry::Global().Names();
  for (const std::string& name : names) {
    int designs = 0;
    for (const GoldenCase& c : kGolden) designs += name == c.sampler;
    EXPECT_EQ(designs, 4) << "sampler '" << name
                          << "' needs one golden case per built-in design";
  }
}

}  // namespace
}  // namespace wnw
