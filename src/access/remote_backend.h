// RemoteBackend: the AccessBackend whose origin is a wnw_serve daemon on
// the other side of a TCP connection — the paper's actual setting, where
// every neighbor query is a remote API round trip and sampling cost is
// dominated by the wire, not the lookup.
//
// It slots into the existing decorator stack unchanged: AccessInterface,
// the shared QueryCache, and the CompletionExecutor window all compose over
// it exactly as over InMemoryBackend, because the Stats handshake ships the
// server's scenario descriptor (node count, §6.3.1 restriction, server
// seed) at connect time — options() and deterministic() answer locally.
// Counter-mode restriction randomness (keyed on (seed, node, call#) server
// side) is what makes the acceptance gate possible: every registered
// sampler draws byte-identical samples at identical query cost against a
// loopback wnw_serve vs the in-process origin.
//
// Transport: a fixed pool of connections multiplexed by one client-side
// event-loop thread. Requests pipeline — any number of calls from any
// number of sessions are in flight per connection, demultiplexed by
// request_id — so N concurrent sessions cost N in-flight frames, not N
// sockets or N threads. Every request takes one path, the callback RPC:
// FetchNeighborsCompletion returns at once, and the blocking calls wait on
// the same RPC's completion. Each attempt carries a deadline (timer-wheel
// enforced; a late reply is dropped by id, never misdelivered) and
// transient failures (connection refused/reset/closed, deadline expiry) are
// retried with linear backoff on the loop's timers up to a bounded budget
// before surfacing as Unavailable / DeadlineExceeded. A retry reconnects a
// pool whose connections are all down, so it reaches a restarted server.
// Server-side backend errors (e.g. OutOfRange for a bad node id) are
// rebuilt from the wire status verbatim and never retried.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "access/backend.h"
#include "net/event_loop.h"

namespace wnw {

struct RemoteBackendOptions {
  /// Connection-pool size. Calls round-robin across the pool; each
  /// connection pipelines any number of in-flight requests, so this trades
  /// head-of-line blocking against fd count, not concurrency.
  int connections = 2;

  /// Per-request deadline (covers one attempt, not the retry budget).
  double deadline_ms = 5000.0;

  /// Retry budget beyond the first attempt for transient errors
  /// (Unavailable, DeadlineExceeded). 0 = fail fast.
  int max_retries = 2;

  /// Backoff before retry attempt k (1-based): k * rpc_backoff_ms.
  double retry_backoff_ms = 50.0;

  /// TCP connect timeout per connection attempt.
  double connect_timeout_ms = 2000.0;
};

class RemoteBackend final : public AccessBackend {
 public:
  /// Connects to "host:port" (dotted IPv4 or "localhost"), performs the
  /// Stats handshake, and returns the ready backend. Unavailable when the
  /// server cannot be reached within the retry budget; InvalidArgument for
  /// a malformed address or a peer that is not speaking the wnw protocol.
  static Result<std::shared_ptr<RemoteBackend>> Connect(
      const std::string& addr, RemoteBackendOptions options = {});

  ~RemoteBackend() override;

  std::string_view name() const override { return name_; }  // "remote(addr)"
  uint64_t num_nodes() const override { return num_nodes_; }
  const AccessOptions& options() const override { return access_; }
  const RemoteBackend* AsRemote() const override { return this; }

  Result<FetchReply> FetchNeighbors(NodeId u) override;

  /// Completion-native fetch: pipelines the request frame and returns
  /// without waiting; the client event loop invokes `done` when the reply,
  /// deadline expiry, or connection failure arrives. Transient failures
  /// retry via loop timers (never a parked thread) and reconnect like any
  /// other attempt. The caller must keep this backend alive until
  /// the completion fires (CompletionExecutor holds the operation's
  /// shared_ptr, so stacks composed through it satisfy this for free).
  void FetchNeighborsCompletion(NodeId u, CompletionCallback done) override;
  bool completion_native() const override { return true; }

  /// One FetchBatch frame per call: the server runs the whole batch behind
  /// a single round trip and its BatchReply — per-request shards, stall
  /// table, slowest-shard billing — is decoded verbatim, so remote batch
  /// accounting matches the in-process decorators bit for bit.
  Result<BatchReply> FetchBatch(std::span<const NodeId> nodes) override;

  /// Origin shard count reported by the server's handshake (0 = unsharded).
  int origin_shards() const { return origin_shards_; }

  /// The server-side backend stack name from the handshake, e.g.
  /// "sharded[degree:4](snapshot)".
  const std::string& origin_name() const { return origin_name_; }

  const std::string& address() const { return addr_; }

  /// A fresh Stats round trip: cumulative server counters (requests served,
  /// connections accepted). For tooling; the handshake fields are cached.
  struct ServerCounters {
    uint64_t requests_served = 0;
    uint64_t connections_accepted = 0;
  };
  Result<ServerCounters> FetchServerCounters();

  // Cumulative client telemetry across every session sharing this backend
  // (the per-session CostMeter stays wire-agnostic).
  uint64_t rpcs() const { return rpcs_.load(std::memory_order_relaxed); }
  uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  /// Wire bytes sent + received, frame headers included.
  uint64_t wire_bytes() const {
    return bytes_sent_.load(std::memory_order_relaxed) +
           bytes_received_.load(std::memory_order_relaxed);
  }

  const RemoteBackendOptions& remote_options() const { return options_; }

 private:
  struct Conn;
  struct PendingCall;
  struct Rpc;

  RemoteBackend(std::string addr, RemoteBackendOptions options);

  Status Handshake();

  using RpcCallback = std::function<void(Result<std::vector<std::byte>>)>;

  /// The one way a request is issued. `done` fires exactly once with the
  /// reply payload or the final error: from the loop thread (reply,
  /// deadline, connection death, retry outcome) or from the submitting
  /// thread (a submission failure that is not retried).
  void CallAsync(uint16_t opcode, std::vector<std::byte> request_payload,
                 RpcCallback done);

  /// CallAsync, with the calling thread blocked until it completes. Never
  /// called from the loop thread.
  Result<std::vector<std::byte>> Await(uint16_t opcode,
                                       std::vector<std::byte> request_payload);

  /// Launches one attempt of `rpc`: picks a connected pool connection,
  /// encodes the frame and registers its pending entry, and posts the
  /// deadline-arm + flush.
  void StartAttempt(std::shared_ptr<Rpc> rpc);

  /// The connection for the next attempt, (re)connected if it was down.
  /// On the loop thread a live connection wins over the round-robin pick.
  Result<Conn*> PickConn();

  /// Terminal demux for an attempt's outcome: completes the call, or
  /// schedules the next attempt behind a loop backoff timer while the
  /// error is transient and budget remains.
  void FinishOrRetry(std::shared_ptr<Rpc> rpc, Status status,
                     uint16_t opcode, std::vector<std::byte> payload);

  /// (Re)establishes conn's socket if it is down; serialized per
  /// connection. Blocks the calling thread for the connect — including the
  /// loop thread, which only gets here when every pool connection is down.
  Status EnsureConnected(Conn* conn);

  /// Runs `fn` on the loop thread and returns once it has run: inline
  /// when already there, otherwise through a post the caller waits on.
  void RunOnLoop(const std::function<void()>& fn);

  // Loop-thread handlers.
  void OnConnIo(Conn* conn, uint32_t events);
  void ProcessConnInput(Conn* conn);
  void FlushConn(Conn* conn);
  void KillConn(Conn* conn, const Status& why);
  void TimeoutCall(Conn* conn, uint64_t request_id);

  std::string addr_;
  std::string name_;
  RemoteBackendOptions options_;

  // Handshake results.
  uint64_t num_nodes_ = 0;
  AccessOptions access_;
  int origin_shards_ = 0;
  std::string origin_name_;

  std::unique_ptr<net::EventLoop> loop_;
  std::thread loop_thread_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<uint64_t> next_conn_{0};
  std::atomic<bool> destroyed_{false};

  std::atomic<uint64_t> rpcs_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
};

}  // namespace wnw
