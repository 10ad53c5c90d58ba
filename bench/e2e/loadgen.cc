#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <ctime>

#include "net/wire.h"
#include "util/rng.h"

namespace banks::e2e {

int64_t MonoNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long pages = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &pages, &resident);
  std::fclose(f);
  return n == 2 ? resident * static_cast<size_t>(::sysconf(_SC_PAGESIZE)) : 0;
}

void NoteAnswer(RequestRecord* r, AnswerTree tree, int64_t now) {
  if (r->answers == 0) {
    r->first_ns = now;
  } else if (r->ordered && tree.score > r->last_score + 1e-12) {
    r->well_formed = false;
  }
  if (++r->answers > kTopK) r->well_formed = false;
  r->last_score = tree.score;
  r->trees.push_back(std::move(tree));
}

// ---- Wire ------------------------------------------------------------------

namespace {

bool WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, char* buf, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t r = ::read(fd, buf + off, n - off);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    off += static_cast<size_t>(r);
  }
  return true;
}

/// Blocking connect + Hello handshake; returns a non-blocking socket.
int Connect(uint16_t port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = "socket failed";
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  net::WireWriter w;
  net::WriteHello(&w, net::HelloRequest{});
  char header_bytes[net::kFrameHeaderBytes];
  net::FrameHeader header;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      !WriteAll(fd, net::EncodeFrame(net::FrameType::kHello, 0, w.data())) ||
      !ReadAll(fd, header_bytes, sizeof header_bytes) ||
      !net::DecodeHeader(header_bytes, net::kDefaultMaxFrameBytes, &header)) {
    *error = "connect/hello failed";
    ::close(fd);
    return -1;
  }
  std::string payload(header.payload_bytes, '\0');
  net::WireReader r(payload);
  net::HelloReply reply;
  if (!ReadAll(fd, payload.data(), payload.size()) ||
      static_cast<net::FrameType>(header.type) != net::FrameType::kHelloOk ||
      !net::ReadHelloReply(&r, &reply)) {
    *error = "bad hello reply";
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

WireTransport::~WireTransport() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

bool WireTransport::Start(int epfd, std::string* error) {
  epfd_ = epfd;
  conns_.resize(kConnections);
  for (uint32_t i = 0; i < conns_.size(); ++i) {
    conns_[i].fd = Connect(port_, error);
    if (conns_[i].fd < 0) return false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = i + 1;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, conns_[i].fd, &ev);
  }
  return true;
}

void WireTransport::UpdateInterest(Conn* c, uint32_t tag) {
  const bool want = c->out_offset < c->out.size();
  if (want == c->want_write || c->fd < 0) return;
  c->want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.u32 = tag;
  ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c->fd, &ev);
}

void WireTransport::Flush(Conn* c) {
  while (c->fd >= 0 && c->out_offset < c->out.size()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_offset,
                             c->out.size() - c->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_offset += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      break;  // EAGAIN (wait for EPOLLOUT) or an error the read side sees
    }
  }
  if (c->out_offset == c->out.size()) {
    c->out.clear();
    c->out_offset = 0;
  }
}

bool WireTransport::Send(RequestRecord* r,
                         const std::vector<std::string>& keywords,
                         Algorithm algorithm, const SearchOptions& options) {
  Conn& c = conns_[r->conn];
  if (c.fd < 0) {
    r->error = true;
    r->final_ns = MonoNs();
    return false;
  }
  net::SearchRequest req;
  req.algorithm = algorithm;
  req.options = options;
  req.keywords = keywords;
  net::WireWriter w;
  net::WriteSearchRequest(&w, req);
  const uint64_t id = c.next_id++;
  c.open.emplace(id, r);
  c.out += net::EncodeFrame(net::FrameType::kQuery, id, w.data());
  Flush(&c);
  UpdateInterest(&c, r->conn + 1);
  return true;
}

void WireTransport::Fail(Conn* c, std::vector<RequestRecord*>* done) {
  if (c->fd < 0) return;
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c->fd, nullptr);
  ::close(c->fd);
  c->fd = -1;
  const int64_t now = MonoNs();
  for (auto& [id, r] : c->open) {
    r->error = true;
    r->final_ns = now;
    done->push_back(r);
  }
  c->open.clear();
}

void WireTransport::Parse(Conn* c, std::vector<RequestRecord*>* done) {
  size_t pos = 0;
  const int64_t now = MonoNs();
  while (c->in.size() - pos >= net::kFrameHeaderBytes) {
    net::FrameHeader h;
    if (!net::DecodeHeader(c->in.data() + pos, net::kDefaultMaxFrameBytes,
                           &h)) {
      ++protocol_errors_;
      Fail(c, done);
      return;
    }
    const size_t total = net::kFrameHeaderBytes + h.payload_bytes;
    if (c->in.size() - pos < total) break;
    net::WireReader reader(c->in.data() + pos + net::kFrameHeaderBytes,
                           h.payload_bytes);
    pos += total;
    auto it = c->open.find(h.request_id);
    if (it == c->open.end()) {
      ++protocol_errors_;  // a frame for no open request
      continue;
    }
    RequestRecord* r = it->second;
    ++r->frames;
    r->bytes += total;
    switch (static_cast<net::FrameType>(h.type)) {
      case net::FrameType::kAnswer: {
        AnswerTree tree;
        if (!net::ReadAnswerTree(&reader, &tree)) {
          ++protocol_errors_;
          r->well_formed = false;
          break;
        }
        NoteAnswer(r, std::move(tree), now);
        break;
      }
      case net::FrameType::kFinal: {
        net::FinalReply f;
        if (!net::ReadFinalReply(&reader, &f)) {
          ++protocol_errors_;
          r->error = true;
        }
        r->status = f.status;
        r->server_seconds = f.metrics.elapsed_seconds;
        r->final_ns = now;
        c->open.erase(it);
        done->push_back(r);
        break;
      }
      default:  // kError (request-level) or anything unexpected
        r->error = true;
        r->final_ns = now;
        c->open.erase(it);
        done->push_back(r);
        break;
    }
  }
  c->in.erase(0, pos);
}

void WireTransport::OnReady(uint32_t tag, uint32_t events,
                            std::vector<RequestRecord*>* done) {
  Conn* c = &conns_[tag - 1];
  if (c->fd < 0) return;
  if (events & EPOLLOUT) {
    Flush(c);
    UpdateInterest(c, tag);
  }
  if (!(events & (EPOLLIN | EPOLLHUP | EPOLLERR))) return;
  char buf[64 << 10];
  for (;;) {
    const ssize_t n = ::read(c->fd, buf, sizeof buf);
    if (n > 0) {
      c->in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    Parse(c, done);  // frames that arrived before the close still count
    Fail(c, done);
    return;
  }
  Parse(c, done);
}

void WireTransport::Stop(std::vector<RequestRecord*>* done) {
  for (Conn& c : conns_) {
    if (!c.open.empty()) Fail(&c, done);
    if (c.fd >= 0) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c.fd, nullptr);
      ::close(c.fd);
      c.fd = -1;
    }
  }
}

// ---- In-process -------------------------------------------------------------

class InProcessTransport::Sink : public AnswerSink {
 public:
  Sink(InProcessTransport* owner, RequestRecord* r) : owner_(owner), r_(r) {}
  void OnAnswer(const AnswerTree& answer) override {
    NoteAnswer(r_, answer, MonoNs());
  }
  void OnComplete(SubscribeStatus status,
                  const SearchMetrics& metrics) override {
    r_->status = status;
    r_->server_seconds = metrics.elapsed_seconds;
    r_->final_ns = MonoNs();
    owner_->Complete(r_);
  }

 private:
  InProcessTransport* owner_;
  RequestRecord* r_;
};

InProcessTransport::InProcessTransport(const Engine* engine,
                                       Scheduler* scheduler)
    : engine_(engine), scheduler_(scheduler) {}

InProcessTransport::~InProcessTransport() {
  for (Subscription& s : subscriptions_) s.Wait();
  if (event_fd_ >= 0) ::close(event_fd_);
}

bool InProcessTransport::Start(int epfd, std::string* error) {
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (event_fd_ < 0) {
    *error = "eventfd failed";
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = 1;
  ::epoll_ctl(epfd, EPOLL_CTL_ADD, event_fd_, &ev);
  return true;
}

void InProcessTransport::Complete(RequestRecord* r) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    completed_.push_back(r);
  }
  const uint64_t one = 1;
  (void)!::write(event_fd_, &one, sizeof one);
}

bool InProcessTransport::Send(RequestRecord* r,
                              const std::vector<std::string>& keywords,
                              Algorithm algorithm,
                              const SearchOptions& options) {
  sinks_.push_back(std::make_unique<Sink>(this, r));
  SubscribeOptions subscribe;
  subscribe.scheduler = scheduler_;
  subscribe.tenant = "c";  // append form: GCC 12 -Wrestrict false positive
  subscribe.tenant += std::to_string(r->conn);
  subscriptions_.push_back(engine_->Subscribe(
      keywords, algorithm, sinks_.back().get(), options, subscribe));
  return true;
}

void InProcessTransport::OnReady(uint32_t, uint32_t,
                                 std::vector<RequestRecord*>* done) {
  uint64_t count = 0;
  (void)!::read(event_fd_, &count, sizeof count);
  std::lock_guard<std::mutex> lock(mu_);
  done->insert(done->end(), completed_.begin(), completed_.end());
  completed_.clear();
}

void InProcessTransport::Stop(std::vector<RequestRecord*>* done) {
  for (Subscription& s : subscriptions_) {
    if (!s.finished()) s.Cancel();
  }
  for (Subscription& s : subscriptions_) s.Wait();
  OnReady(0, 0, done);
}

// ---- Generator -------------------------------------------------------------

namespace {

/// After the window, outstanding requests get this long before they
/// count as failed.
constexpr int64_t kDrainNs = 20'000'000'000;

void ArmAt(int tfd, int64_t abs_ns) {
  itimerspec spec{};
  spec.it_value.tv_sec = abs_ns / 1'000'000'000;
  spec.it_value.tv_nsec = abs_ns % 1'000'000'000;
  if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
    spec.it_value.tv_nsec = 1;  // zero would disarm
  }
  ::timerfd_settime(tfd, TFD_TIMER_ABSTIME, &spec, nullptr);
}

}  // namespace

LoadResult RunLoad(const Schedule& schedule, Traffic traffic,
                   Transport* transport, const LoadOptions& options) {
  LoadResult out;
  const int epfd = ::epoll_create1(EPOLL_CLOEXEC);
  const int tfd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  epoll_event tev{};
  tev.events = EPOLLIN;
  tev.data.u32 = 0;
  ::epoll_ctl(epfd, EPOLL_CTL_ADD, tfd, &tev);
  std::string error;
  if (!transport->Start(epfd, &error)) {
    std::fprintf(stderr, "banks_bench: transport start failed: %s\n",
                 error.c_str());
    ::close(tfd);
    ::close(epfd);
    return out;
  }

  const int64_t t0 = options.t0;
  const int64_t window_start = t0 + schedule.warmup_ns;
  const int64_t window_end = window_start + schedule.window_ns;
  const int64_t drain_deadline = window_end + kDrainNs;
  const bool ordered = schedule.options.bound == BoundMode::kTight;

  Rng reservoir_rng(options.seed ^ 0x5EEDULL);
  std::vector<RequestRecord*> reservoir;
  size_t eligible = 0;
  size_t outstanding = 0;
  size_t next_op = 0;

  auto issue = [&](uint32_t conn, int64_t due) {
    if (schedule.ops.empty()) return;
    RequestRecord& r = out.records.emplace_back();
    r.op = static_cast<uint32_t>(next_op % schedule.ops.size());
    r.conn = conn;
    r.due_ns = due;
    r.ordered = ordered;
    ++next_op;
    const Op& op = schedule.ops[r.op];
    if (options.engine != nullptr) r.epoch_sent = options.engine->epoch();
    r.sent_ns = MonoNs();
    ++outstanding;
    if (!transport->Send(&r, schedule.pool[op.query], op.algorithm,
                         schedule.options)) {
      --outstanding;
    }
  };
  // Answers are kept for a seeded reservoir sample of the requests due in
  // the window (or all of them), so memory stays flat over long runs.
  auto finish = [&](RequestRecord* r) {
    --outstanding;
    if (options.engine != nullptr) r->epoch_final = options.engine->epoch();
    if (options.keep_all) {
      r->sampled = r->ok();
      return;
    }
    if (r->due_ns < window_start || r->due_ns >= window_end || !r->ok()) {
      r->trees.clear();
      return;
    }
    ++eligible;
    RequestRecord* dropped = r;
    if (reservoir.size() < options.sample) {
      reservoir.push_back(r);
      dropped = nullptr;
    } else if (const uint64_t j = reservoir_rng.Below(eligible);
               j < reservoir.size()) {
      dropped = reservoir[j];
      reservoir[j] = r;
    }
    if (dropped != nullptr) dropped->trees.clear();
  };

  if (traffic == Traffic::kClosed) {
    for (uint32_t c = 0; c < kClosedStreams; ++c) issue(c, t0);
  } else if (!schedule.ops.empty()) {
    ArmAt(tfd, t0 + schedule.ops[0].due_ns);
  }

  std::vector<RequestRecord*> done;
  epoll_event events[64];
  for (;;) {
    const int64_t now = MonoNs();
    const bool issuing = traffic == Traffic::kClosed
                             ? now < window_end
                             : next_op < schedule.ops.size();
    if ((!issuing && outstanding == 0) || now >= drain_deadline) break;
    const int timeout_ms =
        static_cast<int>((drain_deadline - now) / 1'000'000) + 1;
    const int n = ::epoll_wait(epfd, events, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
      const uint32_t tag = events[i].data.u32;
      if (tag != 0) {
        transport->OnReady(tag, events[i].events, &done);
        continue;
      }
      uint64_t expirations = 0;
      (void)!::read(tfd, &expirations, sizeof expirations);
      const int64_t fire = MonoNs();
      while (next_op < schedule.ops.size() &&
             t0 + schedule.ops[next_op].due_ns <= fire) {
        issue(static_cast<uint32_t>(next_op % kConnections),
              t0 + schedule.ops[next_op].due_ns);
      }
      if (next_op < schedule.ops.size()) {
        ArmAt(tfd, t0 + schedule.ops[next_op].due_ns);
      }
    }
    for (RequestRecord* r : done) {
      finish(r);
      // Closed loop: the next request is due the moment this one is seen
      // complete.
      if (traffic == Traffic::kClosed) {
        const int64_t seen = MonoNs();
        if (seen < window_end) issue(r->conn, seen);
      }
    }
    done.clear();
  }
  transport->Stop(&done);  // fails whatever outlived the drain deadline
  for (RequestRecord* r : done) finish(r);
  for (RequestRecord* r : reservoir) r->sampled = true;
  out.issued = next_op;
  out.end_ns = MonoNs();
  ::close(tfd);
  ::close(epfd);
  return out;
}

// ---- Writer ----------------------------------------------------------------

Writer::Writer(Engine* engine, const std::vector<UpdateOp>* updates,
               int64_t t0)
    : engine_(engine), updates_(updates), t0_(t0), thread_([this] { Run(); }) {}

Writer::~Writer() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

const std::vector<Writer::Applied>& Writer::Join() {
  if (thread_.joinable()) thread_.join();
  return applied_;
}

void Writer::Run() {
  for (const UpdateOp& u : *updates_) {
    const int64_t due = t0_ + u.due_ns;
    while (!stop_.load() && MonoNs() < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<int64_t>(due - MonoNs(), 20'000'000)));
    }
    if (stop_.load()) return;
    Applied a;
    a.due_ns = due;
    a.structural = u.structural;
    a.start_ns = MonoNs();
    engine_->ApplyUpdate(u.batch);
    a.end_ns = MonoNs();
    applied_.push_back(a);
  }
}

// ---- Sampler ---------------------------------------------------------------

Sampler::Sampler(bool detailed, Scheduler* scheduler,
                 const net::Server* server, const BufferPool* pool)
    : detailed_(detailed),
      scheduler_(scheduler),
      server_(server),
      pool_(pool),
      thread_([this] { Run(); }) {}

Sampler::~Sampler() { Stop(); }

void Sampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Sampler::Run() {
  const auto period = std::chrono::milliseconds(detailed_ ? 50 : 100);
  size_t rss = 0;
  for (uint64_t tick = 0;; ++tick) {
    Sample s;
    s.t_ns = MonoNs();
    // RSS at 10 Hz in both modes; a traced run samples gauges at 20 Hz.
    if (!detailed_ || tick % 2 == 0) rss = CurrentRssBytes();
    s.rss_bytes = rss;
    if (detailed_) {
      if (scheduler_ != nullptr) s.sched = scheduler_->Snapshot();
      if (server_ != nullptr) s.server = server_->stats();
      if (pool_ != nullptr) s.pool = pool_->stats();
    }
    samples_.push_back(std::move(s));
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_for(lock, period, [this] { return stop_; })) break;
  }
  timespec cpu{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu);
  cpu_seconds_ = static_cast<double>(cpu.tv_sec) + 1e-9 * cpu.tv_nsec;
}

}  // namespace banks::e2e
