#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "util/timer.h"

namespace banks::net {

namespace {
constexpr uint64_t kListenKey = 0;
constexpr uint64_t kWakeKey = 1;
constexpr size_t kReadChunk = 64 * 1024;
}  // namespace

/// One response frame queued for a connection. `grant_credit` marks
/// answer frames of window-credited requests: when the frame's last byte
/// reaches the kernel, the request gets one delivery credit back — the
/// writability→credit mapping. `final` marks a request's kFinal, the
/// last frame its sink ever queues: moving it to the outbuf retires the
/// request.
struct Server::OutFrame {
  std::string bytes;
  size_t offset = 0;
  uint64_t request_id = 0;
  bool is_answer = false;
  bool grant_credit = false;
  bool final = false;
};

/// Everything a sink touches outside its own connection. Refcounted by
/// the Server and every ConnShared, so a sink whose task ends after the
/// Server is gone (a cancelled request of a closed connection, driven to
/// its end later) still writes to live memory.
struct Server::Hub {
  ~Hub() {
    if (wake_fd >= 0) ::close(wake_fd);
  }

  void Wake() const {
    uint64_t one = 1;
    // A full eventfd counter still wakes the loop; EAGAIN is fine.
    [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof one);
  }

  int wake_fd = -1;
  std::mutex mu;  // guards `dirty`; never held with anything else
  std::vector<uint64_t> dirty;
  std::atomic<uint64_t> requests_open{0};
  std::atomic<uint64_t> output_backlog_frames{0};
};

/// State shared between a connection (loop thread) and its sinks
/// (scheduler workers). Lives until the last sink drops it, which may be
/// after the connection — and the Server — are gone.
struct Server::ConnShared {
  std::shared_ptr<Hub> hub;
  uint64_t conn_id = 0;

  std::mutex mu;
  std::deque<OutFrame> pending;  // frames queued by sinks, not yet
                                 // picked up by the loop thread
  bool closed = false;           // connection gone: drop instead of queue
};

/// AnswerSink bridging one request to its connection: serializes frames
/// on the scheduler worker and hands them to the loop thread. Never
/// blocks on socket progress — flow control is the scheduler's credit
/// machinery, not sink-side waiting (the sink threading rules forbid
/// blocking here).
///
/// The sink owns itself: the scheduler makes exactly one OnComplete
/// call per Submit and never touches the sink afterwards, so OnComplete
/// frees it as its last act. It touches only refcounted state, never
/// the Server.
class Server::SocketSink : public AnswerSink {
 public:
  SocketSink(std::shared_ptr<ConnShared> shared, uint64_t request_id,
             bool grant_on_flush)
      : shared_(std::move(shared)),
        request_id_(request_id),
        grant_on_flush_(grant_on_flush) {}

  void OnAnswer(const AnswerTree& answer) override {
    WireWriter w;
    WriteAnswerTree(&w, answer);
    Push(EncodeFrame(FrameType::kAnswer, request_id_, w.data()),
         /*is_answer=*/true, grant_on_flush_);
  }

  void OnComplete(SubscribeStatus status, const SearchMetrics& metrics) override {
    WireWriter w;
    WriteFinalReply(&w, FinalReply{status, metrics});
    // The request stops counting as open before its kFinal can reach
    // the loop, so a loop that retires the request (and a drain that
    // then ends) never observes it still open.
    shared_->hub->requests_open.fetch_sub(1, std::memory_order_relaxed);
    Push(EncodeFrame(FrameType::kFinal, request_id_, w.data()),
         /*is_answer=*/false, /*grant_credit=*/false, /*final=*/true);
    delete this;
  }

 private:
  void Push(std::string frame, bool is_answer, bool grant_credit,
            bool final = false) {
    {
      std::lock_guard<std::mutex> lock(shared_->mu);
      if (shared_->closed) return;
      OutFrame out;
      out.bytes = std::move(frame);
      out.request_id = request_id_;
      out.is_answer = is_answer;
      out.grant_credit = grant_credit;
      out.final = final;
      shared_->pending.push_back(std::move(out));
      shared_->hub->output_backlog_frames.fetch_add(1,
                                                    std::memory_order_relaxed);
    }
    Hub& hub = *shared_->hub;
    {
      std::lock_guard<std::mutex> lock(hub.mu);
      hub.dirty.push_back(shared_->conn_id);
    }
    hub.Wake();
  }

  std::shared_ptr<ConnShared> shared_;
  const uint64_t request_id_;
  const bool grant_on_flush_;
};

/// Loop-thread-only connection state.
struct Server::Conn {
  uint64_t id = 0;
  int fd = -1;
  std::string tenant;
  std::shared_ptr<ConnShared> shared;

  std::string inbuf;
  size_t parse_offset = 0;
  std::deque<OutFrame> outbuf;
  bool want_write = false;  // EPOLLOUT currently armed
  bool hello_done = false;
  bool closing = false;  // fatal error sent: flush outbuf, then close
  Timer since_flush;     // restarted when the kernel takes bytes or the
                         // outbuf turns non-empty: how long it stalled

  // Open requests, retired when their kFinal moves to the outbuf.
  std::unordered_map<uint64_t, Subscription> requests;
};

Server::Server(const Engine* engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      hub_(std::make_shared<Hub>()) {
  if (options_.scheduler != nullptr) {
    scheduler_ = options_.scheduler;
  } else {
    owned_scheduler_ = std::make_unique<Scheduler>(options_.scheduler_options);
    scheduler_ = owned_scheduler_.get();
  }
}

Server::~Server() {
  Shutdown(drain_seconds_.load());
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool Server::Start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (hub_->wake_fd >= 0) ::close(hub_->wake_fd);
    listen_fd_ = epoll_fd_ = hub_->wake_fd = -1;
    return false;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton(" + options_.bind_address + ")");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 128) != 0) return fail("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return fail("epoll_create1");
  hub_->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (hub_->wake_fd < 0) return fail("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenKey;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeKey;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, hub_->wake_fd, &ev);

  started_.store(true);
  loop_ = std::thread([this] { Loop(); });
  return true;
}

void Server::Shutdown(double drain_seconds) {
  std::call_once(shutdown_once_, [&] {
    if (!started_.load()) return;
    drain_seconds_.store(drain_seconds);
    shutdown_requested_.store(true);
    hub_->Wake();
    loop_.join();
  });
}

Server::Stats Server::stats() const {
  Stats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_open = connections_open_.load();
  s.frames_received = frames_received_.load();
  s.frames_sent = frames_sent_.load();
  s.answers_sent = answers_sent_.load();
  s.protocol_errors = protocol_errors_.load();
  s.requests_opened = requests_opened_.load();
  s.requests_open = hub_->requests_open.load();
  s.output_backlog_frames = hub_->output_backlog_frames.load();
  s.loop_wakeups = loop_wakeups_.load();
  return s;
}

void Server::Loop() {
  bool draining = false;
  Timer drain_timer;
  bool drain_cancelled = false;

  for (;;) {
    if (shutdown_requested_.load() && !draining) {
      draining = true;
      drain_timer = Timer();
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }

    // Idle, the loop sleeps until an event: a socket, or a sink's wake.
    // Every request retires on its own kFinal, which always wakes the
    // loop, so nothing needs a periodic check.
    int timeout_ms = -1;
    if (draining) {
      const double drain_seconds = drain_seconds_.load();
      // Drain deadline: cancel whatever is still open, once.
      if (!drain_cancelled && drain_timer.ElapsedSeconds() >= drain_seconds) {
        drain_cancelled = true;
        for (auto& [id, conn] : conns_) {
          for (auto& [rid, sub] : conn->requests) sub.Cancel();
        }
      }
      // Second deadline: a reader that stopped reading can keep its
      // outbuf unflushable forever — force its socket closed (its
      // cancelled tasks finish on their own; their sinks free
      // themselves). A slow reader that still takes bytes keeps its
      // connection, so its kFinal(kCancelled) arrives behind the answers
      // it is reading.
      const bool stall_checks =
          drain_cancelled && drain_timer.ElapsedSeconds() >= drain_seconds + 1.0;
      if (stall_checks) {
        std::vector<uint64_t> stalled;
        for (auto& [id, conn] : conns_) {
          // Flush first: the socket may have drained while this thread
          // was not scheduled, which is not the reader's stall.
          if (!conn->outbuf.empty()) FlushConn(conn.get());
          if (!conn->outbuf.empty() &&
              conn->since_flush.ElapsedSeconds() >= 1.0) {
            stalled.push_back(id);
          }
        }
        for (uint64_t id : stalled) DestroyConn(id);
      }
      bool busy = false;
      for (auto& [id, conn] : conns_) {
        busy = busy || !conn->requests.empty() || !conn->outbuf.empty();
        std::lock_guard<std::mutex> lock(conn->shared->mu);
        busy = busy || !conn->shared->pending.empty();
      }
      if (!busy) break;  // drained: close everything below

      // Sleep until the next deadline; past both, until the earliest
      // unflushed outbuf would have stalled for a second.
      double next = std::numeric_limits<double>::infinity();
      if (!stall_checks) {
        next = (drain_cancelled ? drain_seconds + 1.0 : drain_seconds) -
               drain_timer.ElapsedSeconds();
      } else {
        for (auto& [id, conn] : conns_) {
          if (conn->outbuf.empty()) continue;
          next = std::min(next, 1.0 - conn->since_flush.ElapsedSeconds());
        }
      }
      if (std::isfinite(next)) {
        timeout_ms = static_cast<int>(std::max(next, 0.0) * 1e3) + 1;
      }
    }

    epoll_event events[64];
    int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0 && errno != EINTR) break;
    loop_wakeups_.fetch_add(1, std::memory_order_relaxed);

    for (int i = 0; i < n; ++i) {
      uint64_t key = events[i].data.u64;
      uint32_t mask = events[i].events;
      if (key == kListenKey) {
        Accept();
        continue;
      }
      if (key == kWakeKey) {
        uint64_t drainv;
        while (::read(hub_->wake_fd, &drainv, sizeof drainv) > 0) {
        }
        continue;
      }
      auto it = conns_.find(key);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Conn* conn = it->second.get();
      if (mask & (EPOLLERR | EPOLLHUP)) {
        CloseConn(conn, /*flush_first=*/false);
        continue;
      }
      if (mask & EPOLLIN) ReadConn(conn);
      if (conns_.find(key) == conns_.end()) continue;
      if (mask & EPOLLOUT) FlushConn(conn);
    }

    // Pick up frames the sinks queued since the last pass.
    std::vector<uint64_t> dirty;
    {
      std::lock_guard<std::mutex> lock(hub_->mu);
      dirty.swap(hub_->dirty);
    }
    for (uint64_t id : dirty) {
      auto it = conns_.find(id);
      if (it != conns_.end()) DrainPending(it->second.get());
    }

    // A closing connection lingers until its error/final frames are out.
    std::vector<uint64_t> doomed;
    for (auto& [id, conn] : conns_) {
      if (conn->closing && conn->outbuf.empty()) doomed.push_back(id);
    }
    for (uint64_t id : doomed) DestroyConn(id);
  }

  // Loop exit: every flushable byte is out. Requests of connections
  // closed on the way may still be finishing; their sinks free
  // themselves.
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) DestroyConn(id);
}

void Server::Accept() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (options_.send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                   sizeof options_.send_buffer_bytes);
    }

    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    // snprintf, not "c" + std::to_string: GCC 12 at -O3 flags the
    // inlined string concatenation with a false -Wrestrict.
    char tenant[24];
    std::snprintf(tenant, sizeof tenant, "c%llu",
                  static_cast<unsigned long long>(conn->id));
    conn->tenant = tenant;
    conn->shared = std::make_shared<ConnShared>();
    conn->shared->hub = hub_;
    conn->shared->conn_id = conn->id;

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);

    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_open_.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace(conn->id, std::move(conn));
  }
}

void Server::ReadConn(Conn* conn) {
  if (conn->closing) return;
  for (;;) {
    size_t old = conn->inbuf.size();
    conn->inbuf.resize(old + kReadChunk);
    ssize_t n = ::read(conn->fd, conn->inbuf.data() + old, kReadChunk);
    if (n > 0) {
      conn->inbuf.resize(old + static_cast<size_t>(n));
      continue;
    }
    conn->inbuf.resize(old);
    if (n == 0) {
      CloseConn(conn, /*flush_first=*/false);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn, /*flush_first=*/false);
    return;
  }

  // Parse complete frames.
  while (!conn->closing &&
         conn->inbuf.size() - conn->parse_offset >= kFrameHeaderBytes) {
    FrameHeader header;
    if (!DecodeHeader(conn->inbuf.data() + conn->parse_offset,
                      options_.max_frame_bytes, &header)) {
      ErrorCode code = header.version != kProtocolVersion
                           ? ErrorCode::kUnsupportedVersion
                           : ErrorCode::kBadFrame;
      SendError(conn, 0, code, "malformed or oversized frame", /*fatal=*/true);
      break;
    }
    size_t total = kFrameHeaderBytes + header.payload_bytes;
    if (conn->inbuf.size() - conn->parse_offset < total) break;
    const char* payload =
        conn->inbuf.data() + conn->parse_offset + kFrameHeaderBytes;
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    bool keep = Dispatch(conn, header, payload);
    conn->parse_offset += total;
    if (!keep) break;
  }
  if (conn->parse_offset > 0) {
    conn->inbuf.erase(0, conn->parse_offset);
    conn->parse_offset = 0;
  }
}

bool Server::Dispatch(Conn* conn, const FrameHeader& header,
                      const char* payload) {
  FrameType type = static_cast<FrameType>(header.type);
  WireReader reader(payload, header.payload_bytes);

  if (!conn->hello_done) {
    if (type != FrameType::kHello) {
      SendError(conn, header.request_id, ErrorCode::kHelloRequired,
                "first frame must be Hello", /*fatal=*/true);
      return false;
    }
    HelloRequest hello;
    if (!ReadHello(&reader, &hello)) {
      SendError(conn, header.request_id, ErrorCode::kBadPayload,
                "bad Hello payload", /*fatal=*/true);
      return false;
    }
    if (hello.magic != kHelloMagic) {
      SendError(conn, header.request_id, ErrorCode::kBadMagic,
                "hello magic mismatch", /*fatal=*/true);
      return false;
    }
    if (hello.version != kProtocolVersion) {
      SendError(conn, header.request_id, ErrorCode::kUnsupportedVersion,
                "unsupported protocol version", /*fatal=*/true);
      return false;
    }
    conn->hello_done = true;
    HelloReply reply;
    const Graph& g = engine_->graph();
    reply.nodes = g.num_nodes();
    reply.edges = g.num_edges();
    reply.epoch = engine_->epoch();
    reply.server_name = options_.server_name;
    WireWriter w;
    WriteHelloReply(&w, reply);
    OutFrame out;
    out.bytes = EncodeFrame(FrameType::kHelloOk, header.request_id, w.data());
    out.request_id = header.request_id;
    conn->outbuf.push_back(std::move(out));
    hub_->output_backlog_frames.fetch_add(1, std::memory_order_relaxed);
    FlushConn(conn);
    return true;
  }

  switch (type) {
    case FrameType::kQuery:
    case FrameType::kOpenStream:
      OpenRequest(conn, type, header.request_id, payload, header.payload_bytes);
      return true;

    case FrameType::kNext: {
      uint64_t credits = reader.U64();
      if (!reader.Done()) {
        SendError(conn, header.request_id, ErrorCode::kBadPayload,
                  "bad credit payload", /*fatal=*/false);
        return true;
      }
      auto it = conn->requests.find(header.request_id);
      if (it == conn->requests.end()) {
        SendError(conn, header.request_id, ErrorCode::kUnknownRequest,
                  "no such request", /*fatal=*/false);
        return true;
      }
      it->second.AddCredits(credits);
      return true;
    }

    case FrameType::kCancel: {
      auto it = conn->requests.find(header.request_id);
      if (it == conn->requests.end()) {
        SendError(conn, header.request_id, ErrorCode::kUnknownRequest,
                  "no such request", /*fatal=*/false);
        return true;
      }
      it->second.Cancel();
      return true;
    }

    case FrameType::kPing: {
      OutFrame out;
      out.bytes = EncodeFrame(FrameType::kPong, header.request_id,
                              std::string(payload, header.payload_bytes));
      out.request_id = header.request_id;
      conn->outbuf.push_back(std::move(out));
      hub_->output_backlog_frames.fetch_add(1, std::memory_order_relaxed);
      FlushConn(conn);
      return true;
    }

    default:
      SendError(conn, header.request_id, ErrorCode::kUnknownType,
                "unhandled frame type", /*fatal=*/false);
      return true;
  }
}

void Server::OpenRequest(Conn* conn, FrameType type, uint64_t request_id,
                         const char* payload, size_t payload_bytes) {
  WireReader reader(payload, payload_bytes);
  SearchRequest req;
  if (request_id == 0 || !ReadSearchRequest(&reader, &req)) {
    SendError(conn, request_id, ErrorCode::kBadPayload, "bad search request",
              /*fatal=*/false);
    return;
  }
  if (conn->requests.count(request_id) != 0) {
    SendError(conn, request_id, ErrorCode::kDuplicateRequest,
              "request id already open", /*fatal=*/false);
    return;
  }
  if (shutdown_requested_.load()) {
    SendError(conn, request_id, ErrorCode::kShuttingDown, "server draining",
              /*fatal=*/false);
    return;
  }

  // Pull streams advance on client kNext credits; push requests run
  // against the writability-granted window.
  bool pull = type == FrameType::kOpenStream;
  SubscribeOptions subscribe;
  subscribe.scheduler = scheduler_;
  subscribe.tenant = conn->tenant;
  subscribe.deadline_seconds = req.deadline_seconds;
  subscribe.answer_credits =
      pull ? req.initial_credits : options_.credit_window;

  // The sink owns itself from here: its OnComplete frees it. Admission
  // control runs inside Subscribe; a rejected task has already pushed
  // its kFinal(kRejected) through the sink when this returns — the
  // protocol-error surface of backpressure.
  auto* sink = new SocketSink(conn->shared, request_id, !pull);
  requests_opened_.fetch_add(1, std::memory_order_relaxed);
  hub_->requests_open.fetch_add(1, std::memory_order_relaxed);
  conn->requests.emplace(
      request_id, engine_->Subscribe(req.keywords, req.algorithm, sink,
                                     req.options, subscribe));
  DrainPending(conn);
}

void Server::DrainPending(Conn* conn) {
  std::deque<OutFrame> pending;
  {
    std::lock_guard<std::mutex> lock(conn->shared->mu);
    pending.swap(conn->shared->pending);
  }
  if (conn->outbuf.empty() && !pending.empty()) conn->since_flush.Restart();
  for (OutFrame& frame : pending) {
    // A kFinal is its sink's last frame: the request retires as the
    // frame joins the outbuf, so a later kNext/kCancel for the id is
    // answered kUnknownRequest *behind* it, never ahead of it.
    if (frame.final) conn->requests.erase(frame.request_id);
    conn->outbuf.push_back(std::move(frame));
  }
  if (!conn->outbuf.empty()) FlushConn(conn);
}

void Server::FlushConn(Conn* conn) {
  while (!conn->outbuf.empty()) {
    OutFrame& frame = conn->outbuf.front();
    ssize_t n = ::send(conn->fd, frame.bytes.data() + frame.offset,
                       frame.bytes.size() - frame.offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      // Write error (peer reset): drop the backlog and let the loop's
      // doomed sweep destroy the connection. Never destroy here — the
      // callers (ReadConn's parse loop, DrainPending) still hold `conn`.
      hub_->output_backlog_frames.fetch_sub(conn->outbuf.size(),
                                            std::memory_order_relaxed);
      conn->outbuf.clear();
      conn->closing = true;
      UpdateInterest(conn);
      return;
    }
    frame.offset += static_cast<size_t>(n);
    if (n > 0) conn->since_flush.Restart();
    if (frame.offset < frame.bytes.size()) break;  // kernel buffer full

    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    hub_->output_backlog_frames.fetch_sub(1, std::memory_order_relaxed);
    bool grant = frame.grant_credit;
    uint64_t rid = frame.request_id;
    if (frame.is_answer) answers_sent_.fetch_add(1, std::memory_order_relaxed);
    conn->outbuf.pop_front();
    if (grant) {
      // Frame fully handed to the kernel: the socket absorbed it, so the
      // scheduler may deliver one more answer for this request.
      auto it = conn->requests.find(rid);
      if (it != conn->requests.end()) it->second.AddCredits(1);
    }
  }
  bool want = !conn->outbuf.empty();
  if (want != conn->want_write) {
    conn->want_write = want;
    UpdateInterest(conn);
  }
}

void Server::UpdateInterest(Conn* conn) {
  epoll_event ev{};
  ev.events = (conn->closing ? 0u : EPOLLIN) |
              (conn->want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Server::SendError(Conn* conn, uint64_t request_id, ErrorCode code,
                       const std::string& message, bool fatal) {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  WireWriter w;
  WriteErrorReply(&w, ErrorReply{code, message});
  OutFrame out;
  out.bytes = EncodeFrame(FrameType::kError, request_id, w.data());
  out.request_id = request_id;
  conn->outbuf.push_back(std::move(out));
  hub_->output_backlog_frames.fetch_add(1, std::memory_order_relaxed);
  if (fatal && !conn->closing) {
    conn->closing = true;  // stop reading; DestroyConn once flushed
    UpdateInterest(conn);
  }
  FlushConn(conn);
}

void Server::CloseConn(Conn* conn, bool flush_first) {
  if (flush_first && !conn->outbuf.empty()) {
    conn->closing = true;
    UpdateInterest(conn);
    return;
  }
  DestroyConn(conn->id);
}

void Server::DestroyConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();

  // From here sinks drop their frames instead of queueing.
  size_t dropped;
  {
    std::lock_guard<std::mutex> lock(conn->shared->mu);
    conn->shared->closed = true;
    dropped = conn->shared->pending.size();
    conn->shared->pending.clear();
  }
  hub_->output_backlog_frames.fetch_sub(dropped + conn->outbuf.size(),
                                        std::memory_order_relaxed);

  // Disconnect cancels the connection's in-flight tasks. Nothing waits
  // for them: each sink frees itself at its terminal OnComplete.
  for (auto& [rid, sub] : conn->requests) sub.Cancel();

  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  connections_open_.fetch_sub(1, std::memory_order_relaxed);
  conns_.erase(it);
}

}  // namespace banks::net
