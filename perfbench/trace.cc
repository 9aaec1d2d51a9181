#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {
namespace {

struct SpanRecord {
  const char* name;
  Layer layer;
  uint32_t tid;
  uint32_t job;
  uint32_t draw;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;  // 0 = a root span
};

struct OpenSpan {
  const char* name;
  Layer layer;
  uint32_t job;
  uint32_t draw;
  int64_t start_ns;
  int64_t child_ns;  // time covered by closed child spans
  uint64_t id;
};

// One per thread that ever opened a span; owned by the registry so the
// spans outlive the thread. `stack`, `job`, `draw` and `next_seq` are touched
// only by the owning thread; the rest is read by Collect/WriteChromeTrace.
struct ThreadBuffer {
  uint32_t tid = 0;
  uint64_t next_seq = 1;
  uint32_t job = 0;
  uint32_t draw = 0;
  std::vector<OpenSpan> stack;

  std::mutex mu;
  std::vector<SpanRecord> spans;          // guarded by mu
  std::array<int64_t, kLayers> self_ns{};  // guarded by mu
  uint64_t closed = 0;                     // guarded by mu
  uint64_t dropped = 0;                    // guarded by mu
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_max_stored{0};
std::atomic<uint64_t> g_stored{0};
std::atomic<int64_t> g_epoch_ns{0};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;  // guarded by g_registry_mu

ThreadBuffer& Local() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    owned->tid = static_cast<uint32_t>(g_registry.size() + 1);
    buffer = owned.get();
    g_registry.push_back(std::move(owned));
  }
  return *buffer;
}

void Store(ThreadBuffer& b, const SpanRecord& record, int64_t self_ns) {
  const bool keep = g_stored.fetch_add(1, std::memory_order_relaxed) <
                    g_max_stored.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(b.mu);
  b.self_ns[static_cast<size_t>(record.layer)] += self_ns;
  ++b.closed;
  if (keep) {
    b.spans.push_back(record);
  } else {
    ++b.dropped;
  }
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench:
      return "bench";
    case Layer::kGraph:
      return "graph";
    case Layer::kStorage:
      return "storage";
    case Layer::kCore:
      return "core";
    case Layer::kAccess:
      return "access";
    case Layer::kNet:
      return "net";
    case Layer::kEngine:
      return "engine";
  }
  return "unknown";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Enable(uint64_t max_stored) {
  int64_t unset = 0;
  g_epoch_ns.compare_exchange_strong(unset, NowNs());
  g_max_stored.store(max_stored, std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::Pause() { g_enabled.store(false, std::memory_order_relaxed); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::SetRequest(uint32_t job, uint32_t draw) {
  if (!enabled()) return;
  ThreadBuffer& b = Local();
  b.job = job;
  b.draw = draw;
}

void Tracer::RecordDetached(const char* name, Layer layer, int64_t start_ns,
                            int64_t end_ns) {
  ThreadBuffer& b = Local();
  const uint64_t id = (uint64_t{b.tid} << 40) | b.next_seq++;
  Store(b, {name, layer, b.tid, b.job, b.draw, start_ns, end_ns, id, 0},
        end_ns - start_ns);
}

Tracer::Totals Tracer::Collect() {
  Totals totals;
  std::lock_guard<std::mutex> registry_lock(g_registry_mu);
  for (const auto& buffer : g_registry) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    for (size_t i = 0; i < kLayers; ++i) {
      totals.self_seconds[i] += static_cast<double>(buffer->self_ns[i]) * 1e-9;
    }
    totals.spans += buffer->closed;
    totals.dropped += buffer->dropped;
  }
  return totals;
}

bool Tracer::WriteChromeTrace(const std::string& path) {
  std::vector<SpanRecord> spans;
  {
    std::lock_guard<std::mutex> registry_lock(g_registry_mu);
    for (const auto& buffer : g_registry) {
      std::lock_guard<std::mutex> lock(buffer->mu);
      spans.insert(spans.end(), buffer->spans.begin(), buffer->spans.end());
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t epoch = g_epoch_ns.load();
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, \"job\": %u, "
                 "\"draw\": %u}}",
                 i == 0 ? "" : ",\n", s.name, LayerName(s.layer),
                 static_cast<double>(s.start_ns - epoch) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.job, s.draw);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, Layer layer)
    : active_(Tracer::enabled()) {
  if (!active_) return;
  ThreadBuffer& b = Local();
  const uint64_t id = (uint64_t{b.tid} << 40) | b.next_seq++;
  b.stack.push_back({name, layer, b.job, b.draw, NowNs(), 0, id});
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const int64_t end_ns = NowNs();
  ThreadBuffer& b = Local();
  const OpenSpan open = b.stack.back();
  b.stack.pop_back();
  const int64_t duration = end_ns - open.start_ns;
  uint64_t parent = 0;
  if (!b.stack.empty()) {
    b.stack.back().child_ns += duration;
    parent = b.stack.back().id;
  }
  Store(b,
        {open.name, open.layer, b.tid, open.job, open.draw, open.start_ns,
         end_ns, open.id, parent},
        duration - open.child_ns);
}

TimedBackend::TimedBackend(std::shared_ptr<wnw::AccessBackend> inner,
                           BackendSpanNames names, Layer layer)
    : inner_(std::move(inner)), names_(names), layer_(layer) {}

wnw::Result<wnw::FetchReply> TimedBackend::FetchNeighbors(wnw::NodeId u) {
  const int64_t start = NowNs();
  wnw::Result<wnw::FetchReply> reply = [&] {
    ScopedSpan span(names_.fetch, layer_);
    return inner_->FetchNeighbors(u);
  }();
  Record(start, NowNs());
  return reply;
}

void TimedBackend::FetchNeighborsCompletion(wnw::NodeId u,
                                            CompletionCallback done) {
  const int64_t start = NowNs();
  inner_->FetchNeighborsCompletion(
      u, [this, start, done = std::move(done)](
             wnw::Result<wnw::FetchReply> reply) mutable {
        const int64_t end = NowNs();
        Record(start, end);
        if (Tracer::enabled()) {
          Tracer::RecordDetached(names_.completion, layer_, start, end);
        }
        done(std::move(reply));
      });
}

wnw::Result<wnw::BatchReply> TimedBackend::FetchBatch(
    std::span<const wnw::NodeId> nodes) {
  const int64_t start = NowNs();
  wnw::Result<wnw::BatchReply> reply = [&] {
    ScopedSpan span(names_.batch, layer_);
    return inner_->FetchBatch(nodes);
  }();
  Record(start, NowNs());
  return reply;
}

void TimedBackend::Record(int64_t start_ns, int64_t end_ns) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  busy_ns_.fetch_add(end_ns - start_ns, std::memory_order_relaxed);
  Stripe& stripe =
      stripes_[std::hash<std::thread::id>{}(std::this_thread::get_id()) %
               kStripes];
  std::lock_guard<std::mutex> lock(stripe.mu);
  stripe.durations_us.push_back(static_cast<float>(end_ns - start_ns) * 1e-3f);
}

TimedBackend::CallTotals TimedBackend::Totals() const {
  CallTotals totals;
  totals.calls = calls_.load(std::memory_order_relaxed);
  totals.busy_seconds =
      static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) * 1e-9;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    totals.durations_us.insert(totals.durations_us.end(),
                               stripe.durations_us.begin(),
                               stripe.durations_us.end());
  }
  return totals;
}

}  // namespace perfbench
