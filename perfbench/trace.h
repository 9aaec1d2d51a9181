// Span tracing for the benchmark's traced run, and the timing decorator that
// spans every backend call.
//
// Spans are recorded from the benchmark's own files, around its calls into
// each layer of the library (docs/ARCHITECTURE.md): a span has a name, a
// layer, a start, an end, the span that was open on the same thread when it
// began (its parent), and the (job, draw) id of the request it serves. Spans
// live in per-thread memory and are written once, at exit, as Chrome
// trace-event JSON. A layer's self time is its spans' durations minus the
// part covered by their child spans; it is accumulated as spans close, so it
// covers every span even when the stored copy is capped.
//
// Tracing is off unless Tracer::Enable ran, and a disabled ScopedSpan costs
// one relaxed atomic load. End-to-end numbers come only from untraced runs.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "access/backend.h"

namespace perfbench {

/// The library's modules, as trace layers. kBench is the load generator.
enum class Layer : uint8_t {
  kBench,
  kGraph,
  kStorage,
  kCore,
  kAccess,
  kNet,
  kEngine,
};
inline constexpr size_t kLayers = 7;
const char* LayerName(Layer layer);

/// Nanoseconds on the steady clock.
int64_t NowNs();

class Tracer {
 public:
  /// Turns recording on (and back on after Pause). At most `max_stored`
  /// spans are kept for the trace file; later ones still count toward self
  /// times and are reported as dropped.
  static void Enable(uint64_t max_stored);

  /// Stops recording; spans already open still close normally.
  static void Pause();

  static bool enabled();

  /// Stamps spans this thread opens from now on with (job, draw).
  static void SetRequest(uint32_t job, uint32_t draw);

  /// A span whose start and end were taken on different threads (a
  /// completion callback); recorded on the calling thread, with no parent.
  static void RecordDetached(const char* name, Layer layer, int64_t start_ns,
                             int64_t end_ns);

  struct Totals {
    std::array<double, kLayers> self_seconds{};
    uint64_t spans = 0;    // spans closed while enabled
    uint64_t dropped = 0;  // of those, not stored for the trace file
  };
  static Totals Collect();

  /// Writes the stored spans as Chrome trace-event JSON ("X" events, one
  /// track per thread; args carry id, parent, job and draw). Returns false
  /// when the file cannot be written.
  static bool WriteChromeTrace(const std::string& path);
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Layer layer);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
};

/// Span names for one TimedBackend; string literals, since stored spans keep
/// the pointers until the trace is written.
struct BackendSpanNames {
  const char* fetch;
  const char* batch;
  const char* completion;
};
inline constexpr BackendSpanNames kAccessSpans{
    "access.backend.fetch", "access.backend.fetch_batch",
    "access.backend.fetch_completion"};
inline constexpr BackendSpanNames kNetSpans{
    "net.rpc.fetch", "net.rpc.fetch_batch", "net.rpc.fetch_completion"};

/// An AccessBackend decorator that times every call into the backend it
/// wraps and, while tracing is enabled, records a span around it. It changes
/// no path: every virtual of AccessBackend forwards to the inner backend —
/// AsSharded, AsRemote, name, completion_native and may_block included — so
/// a session over the decorator issues exactly the calls it would issue over
/// the bare backend. Never wrap the walk engine's backend: the engine picks
/// its direct-CSR path only for a bare InMemoryBackend or SnapshotBackend.
class TimedBackend final : public wnw::AccessBackend {
 public:
  TimedBackend(std::shared_ptr<wnw::AccessBackend> inner,
               BackendSpanNames names, Layer layer);

  const wnw::ShardedBackend* AsSharded() const override {
    return inner_->AsSharded();
  }
  const wnw::RemoteBackend* AsRemote() const override {
    return inner_->AsRemote();
  }
  std::string_view name() const override { return inner_->name(); }
  uint64_t num_nodes() const override { return inner_->num_nodes(); }
  const wnw::AccessOptions& options() const override {
    return inner_->options();
  }
  bool completion_native() const override {
    return inner_->completion_native();
  }
  bool may_block() const override { return inner_->may_block(); }
  void ResetSimulation() override { inner_->ResetSimulation(); }

  wnw::Result<wnw::FetchReply> FetchNeighbors(wnw::NodeId u) override;
  void FetchNeighborsCompletion(wnw::NodeId u,
                                CompletionCallback done) override;
  wnw::Result<wnw::BatchReply> FetchBatch(
      std::span<const wnw::NodeId> nodes) override;

  struct CallTotals {
    uint64_t calls = 0;
    double busy_seconds = 0.0;
    std::vector<double> durations_us;  // one per call, unordered
  };
  CallTotals Totals() const;

 private:
  void Record(int64_t start_ns, int64_t end_ns);

  // Call durations land in one of a few lock stripes picked by thread, so
  // concurrent walkers rarely meet on a lock.
  static constexpr size_t kStripes = 8;
  struct Stripe {
    std::mutex mu;
    std::vector<float> durations_us;  // guarded by mu
  };

  std::shared_ptr<wnw::AccessBackend> inner_;
  BackendSpanNames names_;
  Layer layer_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<int64_t> busy_ns_{0};
  mutable std::array<Stripe, kStripes> stripes_;
};

}  // namespace perfbench
