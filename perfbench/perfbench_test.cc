// Unit tests for the benchmark's own code: the percentile rule, the report
// writer, the span tracer, and the timing decorator's promise to change no
// path (traced and untraced jobs emit identical samples and query costs,
// in-process and over the wire).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "access/remote_backend.h"
#include "graph/generators.h"
#include "net/server.h"
#include "random/rng.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(PercentileRule, TenSamplesBeyondDecidesTheTail) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_EQ(SamplesBeyond(1000, 99.9), 0u);
  EXPECT_EQ(SamplesBeyond(20, 50.0), 10u);
  EXPECT_EQ(SamplesBeyond(100, 90.0), 10u);  // the engine's sweep floor

  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  const Summary s1000 = Summarize(values);
  EXPECT_EQ(s1000.n, 1000u);
  EXPECT_EQ(s1000.p50, 500.0);
  EXPECT_EQ(s1000.tail_pct, 99.0);
  EXPECT_EQ(s1000.tail, 990.0);
  EXPECT_EQ(s1000.At(99.0), 990.0);
  EXPECT_EQ(s1000.At(99.9), 0.0);  // only 0 samples beyond it

  values.pop_back();
  const Summary s999 = Summarize(values);
  EXPECT_EQ(s999.tail_pct, 95.0);
  EXPECT_EQ(s999.At(99.0), 0.0);
  EXPECT_EQ(s999.tail, 950.0);  // ceil(0.95 * 999) = 950
}

TEST(PercentileRule, TooFewSamplesHaveNoTail) {
  const Summary s = Summarize(std::vector<double>{3, 1, 2});
  EXPECT_EQ(s.n, 3u);
  EXPECT_EQ(s.p50, 2.0);
  EXPECT_EQ(s.tail_pct, 0.0);
  EXPECT_EQ(s.tail, 0.0);
  EXPECT_EQ(Summarize(std::vector<double>{}).n, 0u);
}

TEST(ReportWriter, WritesTheContractLine) {
  Report report;
  report.Set("latency_ms", 1.2034, "ms");
  report.Set("setup_s", 0.1, "s");
  report.Set("latency_ms", 1.25, "ms");  // replaces, keeps the order
  report.Count(10, 1);
  report.Check(true, "outputs match");
  EXPECT_TRUE(report.correct());
  EXPECT_EQ(report.Json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.10000000000000001, "
            "\"unit\": \"s\"}}}");
  EXPECT_NE(report.Table().find("PASS  outputs match"), std::string::npos);
}

TEST(ReportWriter, AFailedCheckOrNoWorkIsIncorrect) {
  Report failed_check;
  failed_check.Count(1, 0);
  failed_check.Check(false, "samples differ");
  EXPECT_FALSE(failed_check.correct());
  EXPECT_EQ(failed_check.failures().size(), 1u);
  EXPECT_EQ(failed_check.Json().rfind("{\"correct\": false", 0), 0u);

  Report no_work;
  EXPECT_FALSE(no_work.correct());

  Report not_finite;
  not_finite.Count(1, 0);
  not_finite.Set("x", std::nan(""), "s");
  EXPECT_FALSE(not_finite.correct());
  EXPECT_NE(not_finite.Json().find("\"value\": 0,"), std::string::npos);
}

TEST(Tracer, SelfTimeExcludesChildSpans) {
  const Tracer::Totals before = Tracer::Collect();
  Tracer::Enable(1000);
  {
    ScopedSpan outer("test.outer", Layer::kEngine);
    const int64_t start = NowNs();
    {
      ScopedSpan inner("test.inner", Layer::kGraph);
      while (NowNs() - start < 2000000) {
      }
    }
  }
  Tracer::Pause();
  { ScopedSpan ignored("test.paused", Layer::kEngine); }
  const Tracer::Totals after = Tracer::Collect();
  EXPECT_EQ(after.spans - before.spans, 2u);
  const double graph = after.self_seconds[static_cast<size_t>(Layer::kGraph)] -
                       before.self_seconds[static_cast<size_t>(Layer::kGraph)];
  const double engine =
      after.self_seconds[static_cast<size_t>(Layer::kEngine)] -
      before.self_seconds[static_cast<size_t>(Layer::kEngine)];
  EXPECT_GE(graph, 0.002);
  EXPECT_LT(engine, graph);
}

wnw::Graph SmallGraph() {
  wnw::Rng rng(11);
  return *wnw::MakeBarabasiAlbert(3000, 4, rng);
}

TEST(TimedBackend, ForwardsEveryPropertyAndCountsCalls) {
  const wnw::Graph graph = SmallGraph();
  auto inner = std::make_shared<wnw::InMemoryBackend>(&graph);
  TimedBackend timed(inner, kAccessSpans, Layer::kAccess);
  EXPECT_EQ(timed.name(), inner->name());
  EXPECT_EQ(timed.num_nodes(), inner->num_nodes());
  EXPECT_EQ(&timed.options(), &inner->options());
  EXPECT_EQ(timed.completion_native(), inner->completion_native());
  EXPECT_EQ(timed.may_block(), inner->may_block());
  EXPECT_EQ(timed.AsSharded(), nullptr);
  EXPECT_EQ(timed.AsRemote(), nullptr);

  ASSERT_TRUE(timed.FetchNeighbors(0).ok());
  const std::vector<wnw::NodeId> batch = {1, 2, 3};
  ASSERT_TRUE(timed.FetchBatch(batch).ok());
  int completions = 0;
  timed.FetchNeighborsCompletion(
      4, [&](wnw::Result<wnw::FetchReply> reply) {
        EXPECT_TRUE(reply.ok());
        ++completions;
      });
  EXPECT_EQ(completions, 1);
  const TimedBackend::CallTotals totals = timed.Totals();
  EXPECT_EQ(totals.calls, 3u);
  EXPECT_EQ(totals.durations_us.size(), 3u);
  EXPECT_GE(totals.busy_seconds, 0.0);
}

// The decorator changes no path: a traced job over it emits the samples and
// query costs of an untraced job over the bare backend.
TEST(TimedBackend, TracedAndUntracedJobsAreIdentical) {
  const wnw::Graph graph = SmallGraph();
  auto bare = std::make_shared<wnw::InMemoryBackend>(&graph);
  auto timed = std::make_shared<TimedBackend>(bare, kAccessSpans,
                                              Layer::kAccess);
  for (uint32_t job = 0; job < 3; ++job) {
    const JobOutcome plain =
        RunJob(graph, bare, "we:mhrw?diameter=6", JobSeed(7, job), 20, job);
    Tracer::Enable(100000);
    const JobOutcome traced =
        RunJob(graph, timed, "we:mhrw?diameter=6", JobSeed(7, job), 20, job);
    Tracer::Pause();
    EXPECT_EQ(plain.samples.size(), 20u);
    EXPECT_EQ(plain.failed, 0u);
    EXPECT_TRUE(traced.SameOutput(plain)) << "job " << job;
  }
  EXPECT_GT(timed->Totals().calls, 0u);
}

TEST(TimedBackend, RemoteJobsMatchInProcessThroughTheDecorator) {
  const wnw::Graph graph = SmallGraph();
  auto origin = std::make_shared<wnw::InMemoryBackend>(&graph);
  wnw::net::ServerOptions server_options;
  server_options.threads = 1;
  auto server = wnw::net::WnwServer::Start(origin, server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto remote = wnw::RemoteBackend::Connect(
      "127.0.0.1:" + std::to_string((*server)->port()));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  std::shared_ptr<wnw::AccessBackend> remote_backend = *remote;
  auto timed =
      std::make_shared<TimedBackend>(remote_backend, kNetSpans, Layer::kNet);
  EXPECT_EQ(timed->AsRemote(), remote->get());
  EXPECT_EQ(timed->completion_native(), true);

  const JobOutcome local =
      RunJob(graph, origin, "we:mhrw?diameter=6", JobSeed(3, 0), 10, 0);
  const uint64_t handshake_rpcs = (*remote)->rpcs();
  const JobOutcome over_wire =
      RunJob(graph, timed, "we:mhrw?diameter=6", JobSeed(3, 0), 10, 0);
  EXPECT_TRUE(over_wire.SameOutput(local));
  EXPECT_EQ(timed->Totals().calls, (*remote)->rpcs() - handshake_rpcs);
}

}  // namespace
}  // namespace perfbench
