#ifndef BANKS_BENCH_E2E_LOADGEN_H_
#define BANKS_BENCH_E2E_LOADGEN_H_

// The load side of banks_bench: one generator thread that offers a
// Schedule to a transport (the wire, or Engine::Subscribe in-process),
// a writer thread for update streams, and a sampler thread for RSS and
// serving-layer gauges. All timestamps are absolute steady-clock ns.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "banks/engine.h"
#include "net/server.h"
#include "serve/scheduler.h"
#include "storage/buffer_pool.h"
#include "workload.h"

namespace banks::e2e {

int64_t MonoNs();

/// One issued request and everything observed about it.
struct RequestRecord {
  uint32_t op = 0;  // index into Schedule::ops
  uint32_t conn = 0;
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t first_ns = 0;  // first answer seen (0 = none)
  int64_t final_ns = 0;  // terminal state seen
  SubscribeStatus status = SubscribeStatus::kPending;
  bool error = false;  // request-level kError or a dropped connection
  bool ordered = false;  // tight bound: answers must arrive score-ordered
  bool well_formed = true;
  uint32_t answers = 0;
  uint32_t frames = 0;
  uint64_t bytes = 0;
  double server_seconds = 0;  // SearchMetrics::elapsed_seconds at kFinal
  uint64_t epoch_sent = 0;
  uint64_t epoch_final = 0;
  double last_score = 0;
  /// Answers, kept until the request is known not to be in the sample
  /// the answer check compares (`sampled`).
  std::vector<AnswerTree> trees;
  bool sampled = false;

  bool ok() const { return !error && status == SubscribeStatus::kCompleted; }
};

/// Where requests go. Transports run on the generator thread except for
/// in-process sink callbacks, which hand records back through a queue.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Registers descriptors with the generator's epoll set (tags >= 1).
  virtual bool Start(int epfd, std::string* error) = 0;
  /// Issues `r`; false when it failed on the spot (record is terminal).
  virtual bool Send(RequestRecord* r, const std::vector<std::string>& keywords,
                    Algorithm algorithm, const SearchOptions& options) = 0;
  /// Handles an epoll event; appends records that became terminal.
  virtual void OnReady(uint32_t tag, uint32_t events,
                       std::vector<RequestRecord*>* done) = 0;
  /// Fails whatever is still outstanding and releases resources.
  virtual void Stop(std::vector<RequestRecord*>* done) = 0;
};

/// Non-blocking epoll client over net/wire.h: kConnections sockets, many
/// request ids in flight per socket, push kQuery requests.
class WireTransport : public Transport {
 public:
  explicit WireTransport(uint16_t port) : port_(port) {}
  ~WireTransport() override;
  WireTransport(const WireTransport&) = delete;
  WireTransport& operator=(const WireTransport&) = delete;

  bool Start(int epfd, std::string* error) override;
  bool Send(RequestRecord* r, const std::vector<std::string>& keywords,
            Algorithm algorithm, const SearchOptions& options) override;
  void OnReady(uint32_t tag, uint32_t events,
               std::vector<RequestRecord*>* done) override;
  void Stop(std::vector<RequestRecord*>* done) override;

  uint64_t protocol_errors() const { return protocol_errors_; }

 private:
  struct Conn {
    int fd = -1;
    std::string in;
    std::string out;
    size_t out_offset = 0;
    bool want_write = false;
    uint64_t next_id = 1;
    std::unordered_map<uint64_t, RequestRecord*> open;
  };
  void Flush(Conn* c);
  void Fail(Conn* c, std::vector<RequestRecord*>* done);
  void Parse(Conn* c, std::vector<RequestRecord*>* done);
  void UpdateInterest(Conn* c, uint32_t tag);

  uint16_t port_;
  int epfd_ = -1;
  std::vector<Conn> conns_;
  uint64_t protocol_errors_ = 0;
};

/// Engine::Subscribe on a Scheduler, one fair-queueing tenant per
/// logical connection (as the server assigns them).
class InProcessTransport : public Transport {
 public:
  InProcessTransport(const Engine* engine, Scheduler* scheduler);
  ~InProcessTransport() override;
  InProcessTransport(const InProcessTransport&) = delete;
  InProcessTransport& operator=(const InProcessTransport&) = delete;

  bool Start(int epfd, std::string* error) override;
  bool Send(RequestRecord* r, const std::vector<std::string>& keywords,
            Algorithm algorithm, const SearchOptions& options) override;
  void OnReady(uint32_t tag, uint32_t events,
               std::vector<RequestRecord*>* done) override;
  void Stop(std::vector<RequestRecord*>* done) override;

 private:
  class Sink;
  void Complete(RequestRecord* r);

  const Engine* engine_;
  Scheduler* scheduler_;
  int event_fd_ = -1;
  std::mutex mu_;  // guards completed_
  std::vector<RequestRecord*> completed_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::vector<Subscription> subscriptions_;
};

/// Records one released answer: first-answer time, the k bound, score
/// order (only tight-bound releases are score-ordered; the loose bound's
/// heuristic release is not), and the tree itself for the answer check.
void NoteAnswer(RequestRecord* r, AnswerTree tree, int64_t now);

struct LoadResult {
  std::deque<RequestRecord> records;  // issue order
  size_t issued = 0;
  int64_t end_ns = 0;
};

struct LoadOptions {
  int64_t t0 = 0;          // absolute start; op due times are offsets
  size_t sample = 128;     // answer-checked requests kept (reservoir)
  bool keep_all = false;   // keep every request's answers (--smoke)
  uint64_t seed = 0;       // reservoir draws
  const Engine* engine = nullptr;  // read for epoch lag (may be null)
};

/// Offers `schedule` through `transport` from the calling thread.
/// Closed loops keep one request in flight on each of kClosedStreams
/// connections until the window ends; open loops send each op at its
/// due time. Latency is measured from the due time, so generator stalls
/// are charged.
LoadResult RunLoad(const Schedule& schedule, Traffic traffic,
                   Transport* transport, const LoadOptions& options);

/// Applies a schedule's update stream at its due times (open loop).
class Writer {
 public:
  struct Applied {
    int64_t due_ns = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    bool structural = false;
  };
  Writer(Engine* engine, const std::vector<UpdateOp>* updates, int64_t t0);
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  /// Waits for the stream to finish; returns what was applied.
  const std::vector<Applied>& Join();

 private:
  void Run();
  Engine* engine_;
  const std::vector<UpdateOp>* updates_;
  int64_t t0_;
  std::atomic<bool> stop_{false};
  std::vector<Applied> applied_;
  std::thread thread_;
};

/// Periodic gauges: RSS at 10 Hz always; scheduler snapshot, server
/// stats and buffer-pool stats at 20 Hz when `detailed`.
class Sampler {
 public:
  struct Sample {
    int64_t t_ns = 0;
    size_t rss_bytes = 0;
    Scheduler::Stats sched;
    net::Server::Stats server;
    BufferPoolStats pool;
  };
  Sampler(bool detailed, Scheduler* scheduler, const net::Server* server,
          const BufferPool* pool);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;
  void Stop();
  const std::vector<Sample>& samples() const { return samples_; }
  /// CPU seconds the sampler thread spent (valid after Stop).
  double cpu_seconds() const { return cpu_seconds_; }

 private:
  void Run();
  const bool detailed_;
  Scheduler* scheduler_;
  const net::Server* server_;
  const BufferPool* pool_;
  std::mutex mu_;  // guards stop_ for the timed wait
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<Sample> samples_;
  double cpu_seconds_ = 0;
  std::thread thread_;
};

size_t CurrentRssBytes();

}  // namespace banks::e2e

#endif  // BANKS_BENCH_E2E_LOADGEN_H_
