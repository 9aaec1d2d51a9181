// Shared fixtures/helpers for the walknotwait test suite.
#pragma once

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "random/rng.h"

namespace wnw::testing {

/// A tiny fixed graph used across tests:
///
///      0 - 1
///      | \ |
///      3   2 - 4
///
/// Degrees: 0:3, 1:2, 2:3, 3:1, 4:1. Diameter 3 (3 <-> 4).
inline Graph MakeHouseGraph() {
  GraphBuilder b(5);
  for (auto [u, v] : std::initializer_list<std::pair<NodeId, NodeId>>{
           {0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 4}}) {
    b.AddEdge(u, v);
  }
  return std::move(b).Build().value();
}

/// Deterministic small scale-free graph for statistical tests.
inline Graph MakeTestBA(NodeId n = 40, uint32_t m = 3, uint64_t seed = 7) {
  Rng rng(seed);
  return MakeBarabasiAlbert(n, m, rng).value();
}

/// Sum of a double vector.
inline double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Materializes an (arena-backed) neighbor span for gtest comparisons.
inline std::vector<NodeId> ToVec(std::span<const NodeId> s) {
  return std::vector<NodeId>(s.begin(), s.end());
}

/// Opens a session of `config` on `g` walking from `start`. Returns null
/// (and fails the calling test) when the session does not open.
inline std::unique_ptr<SamplingSession> OpenSession(const Graph& g,
                                                    const SamplerConfig& config,
                                                    uint64_t seed,
                                                    NodeId start = 0) {
  SessionOptions options;
  options.start = start;
  options.seed = seed;
  auto session = SamplingSession::Open(&g, config, options);
  if (!session.ok()) {
    ADD_FAILURE() << config.ToSpec() << ": " << session.status().ToString();
    return nullptr;
  }
  return std::move(*session);
}

}  // namespace wnw::testing
