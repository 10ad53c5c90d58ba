#ifndef BANKS_NET_CLIENT_H_
#define BANKS_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/wire.h"
#include "search/answer.h"
#include "search/options.h"
#include "search/searcher.h"
#include "serve/answer_sink.h"

namespace banks::net {

struct ClientOptions {
  /// Per-read timeout in seconds waiting for a server frame (0 = block
  /// forever). A timeout surfaces as a connection error.
  double io_timeout_seconds = 30.0;

  /// SO_RCVBUF for the connection (0 = kernel default). Tests shrink it
  /// to make the server-side backpressure path reachable.
  int recv_buffer_bytes = 0;

  std::string client_name = "banks_client";
};

/// Result of one drained network query.
struct NetResult {
  std::vector<AnswerTree> answers;
  SearchMetrics metrics;
  SubscribeStatus status = SubscribeStatus::kPending;
};

class Client;

/// Handle to one open request on a Client. Pull streams (OpenStream)
/// advance the server one answer per credit; push streams (Subscribe)
/// deliver against the server's writability window. Not thread-safe —
/// like the Client, it is a single-threaded blocking API.
class ClientStream {
 public:
  ClientStream() = default;

  /// Next answer in release order; nullopt once the stream is terminal
  /// (then status()/metrics() hold the kFinal payload). On a pull
  /// stream this sends a one-answer credit when none is outstanding.
  std::optional<AnswerTree> Next();

  /// Grants `n` extra delivery credits (kNext wire frame).
  void AddCredits(uint64_t n);

  /// Requests cancellation; the terminal kFinal (usually kCancelled)
  /// still arrives and is surfaced by the last Next().
  void Cancel();

  /// Drains the stream to its terminal frame.
  NetResult Drain();

  bool done() const;
  SubscribeStatus status() const;
  const SearchMetrics& metrics() const;
  uint64_t request_id() const { return id_; }
  explicit operator bool() const { return client_ != nullptr; }

 private:
  friend class Client;
  ClientStream(Client* client, uint64_t id) : client_(client), id_(id) {}

  Client* client_ = nullptr;
  uint64_t id_ = 0;
};

/// Blocking client of the banks wire protocol (docs/NETWORK.md): the
/// library side used by tests, the example shell and the socket bench.
///
/// One background-thread-free design: every call runs on the caller's
/// thread and reads frames until its own request advances, routing
/// frames of other open requests into their per-request buffers — so
/// several streams can be open on one connection, consumed in any
/// order, from one thread. Not thread-safe across threads.
class Client {
 public:
  /// Connects, performs the Hello handshake, returns null (with *error)
  /// on failure.
  static std::unique_ptr<Client> Connect(const std::string& host,
                                         uint16_t port,
                                         const ClientOptions& options = {},
                                         std::string* error = nullptr);

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Server + graph info from the Hello handshake.
  const HelloReply& server_info() const { return server_info_; }

  /// True until a connection-level failure (socket error, fatal
  /// protocol error, timeout); `last_error` says what happened.
  bool ok() const { return fd_ >= 0; }
  const std::string& last_error() const { return error_; }

  /// Round-trip liveness probe.
  bool Ping();

  /// One drained query: push-all delivery against the server's credit
  /// window, blocking until the terminal frame. On a connection error
  /// the result carries status kIoError.
  NetResult Query(const std::vector<std::string>& keywords,
                  Algorithm algorithm, const SearchOptions& options = {},
                  double deadline_seconds = 0);

  /// Opens a pull stream: the server releases answers only against
  /// credits (initial_credits now, ClientStream::Next/AddCredits later).
  ClientStream OpenStream(const std::vector<std::string>& keywords,
                          Algorithm algorithm,
                          const SearchOptions& options = {},
                          double deadline_seconds = 0,
                          uint64_t initial_credits = 0);

  /// Opens a push subscription (server-managed credit window): the
  /// same kQuery request Query drains, returned as a stream.
  ClientStream Subscribe(const std::vector<std::string>& keywords,
                         Algorithm algorithm,
                         const SearchOptions& options = {},
                         double deadline_seconds = 0);

  void Close();

 private:
  friend class ClientStream;

  struct RequestState {
    std::deque<AnswerTree> ready;
    bool final = false;
    SubscribeStatus status = SubscribeStatus::kPending;
    SearchMetrics metrics;
    uint64_t credits_outstanding = 0;  // pull credits not yet consumed
    bool pull = false;
  };

  Client(int fd, ClientOptions options);

  ClientStream Open(FrameType type, const std::vector<std::string>& keywords,
                    Algorithm algorithm, const SearchOptions& options,
                    double deadline_seconds, uint64_t initial_credits);
  bool SendFrame(FrameType type, uint64_t request_id,
                 const std::string& payload);
  /// Reads exactly one frame and routes it; false on connection error.
  bool PumpOne();
  /// Fatal connection error: record, close, mark every open request
  /// kIoError so pending streams terminate instead of hanging.
  void Fail(const std::string& why);
  bool ReadExact(char* buf, size_t n);

  int fd_ = -1;
  ClientOptions options_;
  HelloReply server_info_;
  std::string error_;
  uint64_t next_id_ = 1;
  uint64_t pongs_ = 0;
  std::unordered_map<uint64_t, RequestState> requests_;
};

}  // namespace banks::net

#endif  // BANKS_NET_CLIENT_H_
