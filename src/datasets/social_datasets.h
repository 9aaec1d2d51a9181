// Synthetic stand-ins for the paper's evaluation datasets (§7.1). The real
// crawls (Google Plus, Yelp academic, SNAP Twitter) are not redistributable
// here, so each maker synthesizes a graph matched on the paper's reported
// node count, edge count / average degree, and attribute semantics — see the
// substitution table in DESIGN.md. `scale` in (0, 1] shrinks the instance
// proportionally for fast experiment iterations (scale = 1 reproduces the
// paper's sizes).
#pragma once

#include <string>
#include <string_view>

#include "graph/attributes.h"
#include "graph/graph.h"
#include "util/status.h"

namespace wnw {

struct SocialDataset {
  std::string name;
  Graph graph;
  AttributeTable attrs;
  /// Double-sweep diameter estimate, used as D̄(G) for WALK (2*D̄+1).
  uint32_t diameter_estimate = 0;
};

/// Google Plus stand-in. Paper: 16,405 users, ~4.6M edges (avg degree
/// 560.44), attribute = self-description word count.
/// Columns: "self_desc_len".
SocialDataset MakeGPlusLike(double scale, uint64_t seed);

/// Yelp stand-in. Paper: ~120K users, ~954K review-coincidence edges,
/// attribute = star rating; topological aggregates (clustering, shortest
/// path) are also evaluated. Columns: "stars", "path_len", and (when
/// `with_expensive_attrs`) "clustering".
SocialDataset MakeYelpLike(double scale, uint64_t seed,
                           bool with_expensive_attrs = true);

/// Twitter stand-in. Paper: ~80K users, ~1.7M edges, built from a directed
/// graph reduced to mutual edges; aggregates are in/out degree, shortest
/// path, clustering. Columns: "in_degree", "out_degree", "path_len", and
/// (when `with_expensive_attrs`) "clustering".
SocialDataset MakeTwitterLike(double scale, uint64_t seed,
                              bool with_expensive_attrs = true);

/// The paper's small scale-free graph for exact-bias experiments: 1000
/// nodes, ~6951 edges (BA with m = 7). Columns: "clustering".
SocialDataset MakeSmallScaleFree(uint64_t seed);

/// Plain Barabási–Albert dataset (paper's synthetic sweep: 10k-20k nodes,
/// m = 5). Column: none (degree aggregates only).
SocialDataset MakeSyntheticBA(NodeId n, uint32_t m, uint64_t seed);

/// A parametric graph named on a command line: "ba:N,M" (Barabási–Albert,
/// N nodes, M edges per arriving node) or "rand:N,M" (uniform random
/// multigraph, N nodes, M sampled edges).
struct DatasetSpec {
  enum class Kind { kBarabasiAlbert, kUniformRandom };
  Kind kind = Kind::kBarabasiAlbert;
  NodeId n = 0;
  uint32_t m = 0;

  /// Builds the graph. Every tool builds the same graph for the same
  /// (spec, seed), so a snapshot of a dataset serves the exact graph a
  /// dataset-built session walks.
  Result<Graph> Build(uint64_t seed) const;
};

/// Parses "ba:N,M" / "rand:N,M". NotFound when `name` has neither prefix
/// (a named dataset such as "small"); InvalidArgument when N or M is not a
/// non-negative integer or exceeds UINT32_MAX (node ids are 32-bit).
Result<DatasetSpec> ParseDatasetSpec(std::string_view name);

}  // namespace wnw
