#ifndef BANKS_NET_SERVER_H_
#define BANKS_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "banks/engine.h"
#include "net/wire.h"
#include "serve/scheduler.h"

namespace banks::net {

/// Construction knobs of a Server.
struct ServerOptions {
  /// IPv4 address to bind ("0.0.0.0" to serve beyond loopback).
  std::string bind_address = "127.0.0.1";

  /// TCP port; 0 binds an ephemeral port (read it back with port()).
  uint16_t port = 0;

  /// Scheduler the connections' tasks run on; null makes the server own
  /// one built from `scheduler_options`. Either way it must have worker
  /// threads (manual-drive schedulers would never run the tasks).
  Scheduler* scheduler = nullptr;
  SchedulerOptions scheduler_options;

  /// Per-frame payload cap; frames announcing more are a fatal protocol
  /// error (kBadFrame) and close the connection.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Delivery-credit window of push requests (kQuery / kSubscribe): the
  /// scheduler may run at most this many answers ahead of what the
  /// kernel has accepted for transmission. Each answer frame fully
  /// flushed to the socket grants one credit back, so kernel send-buffer
  /// backpressure becomes scheduler backpressure: a slow reader's task
  /// finishes its (k-bounded) search, parks in kCreditWait holding zero
  /// pool leases, and the server buffers at most this many frames for
  /// it. See docs/NETWORK.md, "Backpressure".
  uint64_t credit_window = 8;

  /// Test hook: SO_SNDBUF for accepted connections (0 = kernel default).
  /// Shrinking it makes the backpressure path reachable with tiny
  /// result sets.
  int send_buffer_bytes = 0;

  std::string server_name = "banks_server";
};

/// Epoll-based TCP front door over one Engine + Scheduler — the network
/// subsystem (docs/NETWORK.md). One event-loop thread owns every socket;
/// search work happens on the scheduler's workers, which hand frames
/// back to the loop through per-connection queues.
///
/// The serving integration, which is the point of the layer:
///  * every connection is a fair-queueing tenant ("c<serial>"), so the
///    scheduler's stride scheduling arbitrates between connections;
///  * answers push through a socket-backed AnswerSink; delivery credits
///    are granted by socket writability (see ServerOptions::credit_window);
///  * admission rejections and scheduler deadlines surface as typed
///    kFinal statuses (kRejected / kDeadlineExpired), not dropped bytes;
///  * a mid-stream disconnect cancels the connection's tasks, returning
///    their context leases to the pool;
///  * Shutdown() stops accepting, lets in-flight tasks reach their
///    terminal OnComplete (drain), flushes, then closes.
class Server {
 public:
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_open = 0;
    uint64_t frames_received = 0;
    uint64_t frames_sent = 0;
    uint64_t answers_sent = 0;
    uint64_t protocol_errors = 0;
    uint64_t requests_opened = 0;  // Query/OpenStream/Subscribe accepted
    uint64_t requests_open = 0;    // not yet terminal
    /// Response frames currently buffered in server memory (queued by
    /// sinks or awaiting socket space) — the bounded-backpressure gauge:
    /// with a credit window W, one request never holds more than W + 1
    /// frames here no matter how slow its reader is.
    uint64_t output_backlog_frames = 0;
    /// epoll_wait returns of the event loop. The loop sleeps without a
    /// timer unless it is draining, so an idle server — idle open
    /// requests included — holds this still.
    uint64_t loop_wakeups = 0;
  };

  /// The engine (and external scheduler, if any) must outlive the server.
  explicit Server(const Engine* engine, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the event-loop thread. False (with
  /// *error) on bind/listen failure.
  bool Start(std::string* error = nullptr);

  /// Port actually bound (resolves port 0 to the ephemeral choice).
  uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting connections and new requests, wait
  /// for in-flight tasks' terminal OnComplete and flush their frames,
  /// then close. Tasks still open after `drain_seconds` are cancelled
  /// (their clients get kFinal(kCancelled) if the socket still drains);
  /// a second later, connections whose unsent bytes made no progress
  /// for a second are closed.
  /// Idempotent; also called by the destructor.
  void Shutdown(double drain_seconds = 10.0);

  Stats stats() const;

  /// The scheduler connection tasks run on (configured or server-owned).
  Scheduler& scheduler() { return *scheduler_; }

 private:
  struct Conn;
  struct ConnShared;
  struct Hub;
  struct OutFrame;
  class SocketSink;

  void Loop();
  void Accept();
  void ReadConn(Conn* conn);
  bool Dispatch(Conn* conn, const FrameHeader& header, const char* payload);
  void OpenRequest(Conn* conn, FrameType type, uint64_t request_id,
                   const char* payload, size_t payload_bytes);
  void FlushConn(Conn* conn);
  void DrainPending(Conn* conn);
  void CloseConn(Conn* conn, bool flush_first);
  void DestroyConn(uint64_t conn_id);
  void UpdateInterest(Conn* conn);
  void SendError(Conn* conn, uint64_t request_id, ErrorCode code,
                 const std::string& message, bool fatal);

  const Engine* engine_;
  ServerOptions options_;
  std::unique_ptr<Scheduler> owned_scheduler_;
  Scheduler* scheduler_ = nullptr;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread loop_;
  std::atomic<bool> started_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<double> drain_seconds_{10.0};
  std::once_flag shutdown_once_;

  // What sinks (scheduler workers) touch: the wake eventfd, the dirty
  // queue and two counters. Shared with every sink, so a task that
  // finishes after the Server is gone still finds it alive.
  std::shared_ptr<Hub> hub_;

  // Connection table — loop-thread-only.
  uint64_t next_conn_id_ = 2;  // 0 = listen sentinel, 1 = wake sentinel
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;

  // Counters (atomics: read by stats() from any thread).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_open_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> answers_sent_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> requests_opened_{0};
  std::atomic<uint64_t> loop_wakeups_{0};
};

}  // namespace banks::net

#endif  // BANKS_NET_SERVER_H_
