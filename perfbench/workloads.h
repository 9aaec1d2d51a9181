// The benchmark's three workloads (README.md in this directory says why each
// was chosen and which layer metric should move which end-to-end metric):
//
//   we-local      2 walkers run WALK-ESTIMATE jobs against an in-process
//                 InMemoryBackend over a 1M-node BA graph.
//   we-remote     1 walker runs the first of those jobs, same seeds, against
//                 an embedded WnwServer serving an mmap'd sharded snapshot of
//                 that graph over loopback, through one RemoteBackend.
//   engine-sweep  50k-walker RunWalkEngine sweeps over a snapshot that set-up
//                 stream-ingests, under a residency budget that pages.
//
// A run without tracing reports the end-to-end metrics; a traced run reports
// the per-layer metrics, the per-layer self time from its trace, and the
// tracing overhead (an untraced half against a traced half of the run, which
// must also emit identical samples and query costs).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "access/backend.h"
#include "graph/graph.h"
#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured phase
  bool trace = false;
  std::string out_dir;    // snapshot and temp files, and the trace file
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// CPUs this process may run on (what `nproc` prints): the thread budget.
int Nproc();

/// Runs one workload into *report. Returns false when set-up failed (the
/// reason is on stderr); the run then has no result to print.
bool RunWorkload(const RunOptions& options, Report* report);

// --- pieces the unit test drives ---------------------------------------------

/// One job: open a session of `spec`, draw `draws` samples, close.
struct JobOutcome {
  std::vector<wnw::NodeId> samples;
  uint64_t query_cost = 0;     // distinct nodes fetched (the paper's cost)
  uint64_t total_queries = 0;  // neighbor-list queries incl. local hits
  uint64_t backend_fetches = 0;
  uint64_t candidates_tried = 0;
  uint64_t samples_accepted = 0;
  uint64_t forward_steps = 0;
  uint64_t backward_walks = 0;
  double open_seconds = 0.0;
  std::vector<double> draw_seconds;  // one per attempted draw
  uint64_t attempted = 0;            // Open + Draw calls
  uint64_t failed = 0;               // of those, not OK

  /// Same samples and the same query costs.
  bool SameOutput(const JobOutcome& other) const;
};

/// Job j's session seed under run seed `run_seed`.
uint64_t JobSeed(uint64_t run_seed, uint32_t job);

/// Runs one job against `backend` (shared by every job of a run). Spans
/// core.open / core.draw / core.close, stamped with (job_id, draw).
JobOutcome RunJob(const wnw::Graph& graph,
                  const std::shared_ptr<wnw::AccessBackend>& backend,
                  std::string_view spec, uint64_t seed, uint32_t draws,
                  uint32_t job_id);

}  // namespace perfbench
