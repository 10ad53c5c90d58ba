// Network front door tests (src/net/): wire codec, loopback
// differential, backpressure, disconnect, malformed input, admission.
//
// The load-bearing property mirrors the serving core's: answers that
// cross the wire must be byte-identical (SameAnswer) to the in-process
// Query, for every algorithm and any number of concurrent clients — the
// socket layer decides only when bytes move, never what the search
// computes. Around it: the
// writability→credit mapping (a slow reader's task parks in credit-wait
// holding zero pool leases while the server buffers a bounded number of
// frames), mid-stream disconnects cancelling the connection's tasks,
// malformed/oversized/truncated frames failing without crashing the
// server, and admission rejections surfacing as typed terminal
// statuses.

#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "banks/engine.h"
#include "datasets/dblp_gen.h"
#include "net/client.h"
#include "net/wire.h"
#include "serve/scheduler.h"
#include "test_util.h"
#include "util/timer.h"

namespace banks::net {
namespace {

void ExpectSameDeterministicMetrics(const SearchMetrics& a,
                                    const SearchMetrics& b) {
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.nodes_touched, b.nodes_touched);
  EXPECT_EQ(a.edges_relaxed, b.edges_relaxed);
  EXPECT_EQ(a.propagation_steps, b.propagation_steps);
  EXPECT_EQ(a.answers_generated, b.answers_generated);
  EXPECT_EQ(a.answers_output, b.answers_output);
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted);
}

void ExpectSameAnswers(const std::vector<AnswerTree>& got,
                       const std::vector<AnswerTree>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(SameAnswer(got[i], want[i])) << "answer " << i << " differs";
  }
}

/// Non-asserting form of the two checks above, for background threads.
bool SameResult(const std::vector<AnswerTree>& answers,
                const SearchMetrics& metrics, const SearchResult& want) {
  if (answers.size() != want.answers.size()) return false;
  for (size_t i = 0; i < answers.size(); ++i) {
    if (!SameAnswer(answers[i], want.answers[i])) return false;
  }
  return metrics.nodes_explored == want.metrics.nodes_explored &&
         metrics.edges_relaxed == want.metrics.edges_relaxed &&
         metrics.answers_output == want.metrics.answers_output;
}

/// Shared DBLP engine — big enough that broad type-name queries ("paper
/// author") release hundreds of answers, which the backpressure tests
/// need to overflow shrunken kernel socket buffers.
const Engine& SharedEngine() {
  static const Engine* engine = [] {
    DblpConfig config;
    config.num_authors = 400;
    config.num_papers = 800;
    config.num_conferences = 12;
    return new Engine(Engine::FromDatabase(GenerateDblp(config)));
  }();
  return *engine;
}

std::vector<std::string> Keywords() { return {"conference", "author"}; }

SearchOptions BaseOptions() {
  SearchOptions options;
  options.k = 8;
  options.max_nodes_explored = 100'000;
  return options;
}

/// Polls `pred` (scheduler state is advanced by worker threads) until
/// true or the deadline; returns the final value.
bool PollFor(const std::function<bool()>& pred, double seconds = 10.0) {
  Timer timer;
  while (timer.ElapsedSeconds() < seconds) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// ---- Wire codec -----------------------------------------------------------

TEST(NetWire, SearchRequestRoundTrip) {
  SearchRequest req;
  req.algorithm = Algorithm::kBackwardSI;
  req.options.k = 17;
  req.options.dmax = 9;
  req.options.lambda = 0.3;
  req.options.combine = ActivationCombine::kSum;
  req.options.bound = BoundMode::kTight;
  req.options.release_patience = 77;
  req.deadline_seconds = 2.5;
  req.initial_credits = 3;
  req.keywords = {"gray", "transaction", "db"};

  WireWriter w;
  WriteSearchRequest(&w, req);
  WireReader r(w.data());
  SearchRequest got;
  ASSERT_TRUE(ReadSearchRequest(&r, &got));
  EXPECT_TRUE(r.Done());
  EXPECT_EQ(got.algorithm, req.algorithm);
  EXPECT_EQ(got.options.k, req.options.k);
  EXPECT_EQ(got.options.dmax, req.options.dmax);
  EXPECT_DOUBLE_EQ(got.options.lambda, req.options.lambda);
  EXPECT_EQ(got.options.combine, req.options.combine);
  EXPECT_EQ(got.options.bound, req.options.bound);
  EXPECT_EQ(got.options.release_patience, req.options.release_patience);
  EXPECT_DOUBLE_EQ(got.deadline_seconds, req.deadline_seconds);
  EXPECT_EQ(got.initial_credits, req.initial_credits);
  EXPECT_EQ(got.keywords, req.keywords);
}

TEST(NetWire, AnswerTreeRoundTrip) {
  AnswerTree tree;
  tree.root = 42;
  tree.edges = {{42, 7, 1.5f}, {42, 9, 0.25f}};
  tree.keyword_nodes = {7, 9};
  tree.keyword_distances = {1.5, 0.25};
  tree.edge_score_raw = 1.75;
  tree.node_prestige = 0.5;
  tree.score = 0.123;
  tree.generated_at = 0.001;
  tree.explored_at_generation = 99;
  tree.touched_at_generation = 200;

  WireWriter w;
  WriteAnswerTree(&w, tree);
  WireReader r(w.data());
  AnswerTree got;
  ASSERT_TRUE(ReadAnswerTree(&r, &got));
  EXPECT_TRUE(r.Done());
  EXPECT_TRUE(SameAnswer(got, tree));
  EXPECT_DOUBLE_EQ(got.score, tree.score);
  EXPECT_EQ(got.explored_at_generation, tree.explored_at_generation);
}

TEST(NetWire, ReaderRejectsTruncationAndTrailingJunk) {
  AnswerTree tree;
  tree.root = 1;
  tree.edges = {{1, 2, 1.0f}};
  tree.keyword_nodes = {2};
  tree.keyword_distances = {1.0};
  WireWriter w;
  WriteAnswerTree(&w, tree);

  // Any strict prefix must fail cleanly — including prefixes that cut an
  // announced vector short (the Count() guard).
  const std::string& full = w.data();
  for (size_t n = 0; n < full.size(); ++n) {
    WireReader r(full.data(), n);
    AnswerTree out;
    EXPECT_FALSE(ReadAnswerTree(&r, &out)) << "prefix " << n << " decoded";
  }
  // Trailing junk: decode succeeds but Done() is false (the server
  // treats that as kBadPayload).
  std::string padded = full + "xx";
  WireReader r(padded);
  AnswerTree out;
  EXPECT_TRUE(ReadAnswerTree(&r, &out));
  EXPECT_FALSE(r.Done());
}

TEST(NetWire, HeaderRejectsOversizeAndBadVersion) {
  std::string frame = EncodeFrame(FrameType::kPing, 7, "abc");
  FrameHeader header;
  ASSERT_TRUE(DecodeHeader(frame.data(), kDefaultMaxFrameBytes, &header));
  EXPECT_EQ(header.payload_bytes, 3u);
  EXPECT_EQ(header.request_id, 7u);
  EXPECT_FALSE(DecodeHeader(frame.data(), /*max_payload=*/2, &header));
  frame[4] = 9;  // version byte
  EXPECT_FALSE(DecodeHeader(frame.data(), kDefaultMaxFrameBytes, &header));
}

// ---- Hello / Ping ---------------------------------------------------------

TEST(NetServer, HelloHandshakeAndPing) {
  const Engine& engine = SharedEngine();
  Server server(&engine);
  ASSERT_TRUE(server.Start());
  ASSERT_NE(server.port(), 0);

  std::string error;
  auto client = Client::Connect("127.0.0.1", server.port(), {}, &error);
  ASSERT_NE(client, nullptr) << error;
  EXPECT_EQ(client->server_info().nodes, engine.graph().num_nodes());
  EXPECT_EQ(client->server_info().edges, engine.graph().num_edges());
  EXPECT_EQ(client->server_info().server_name, "banks_server");
  EXPECT_TRUE(client->Ping());
  EXPECT_TRUE(client->Ping());

  client.reset();
  server.Shutdown();
  Server::Stats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.connections_open, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// ---- Loopback differential: wire ≡ in-process, per algorithm × copies ---

struct NetCase {
  Algorithm algorithm;
  /// Clients running the same query against the server at once: the
  /// test body's plus `shards - 1` on other threads, each of which must
  /// get the in-process answers. (`ShardsN` is the historical instance
  /// suffix, from when N was the intra-query shard count.)
  uint32_t shards;
};

std::string NetCaseName(const ::testing::TestParamInfo<NetCase>& info) {
  std::string name = AlgorithmName(info.param.algorithm);
  name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
  return name + "Shards" + std::to_string(info.param.shards);
}

class NetDifferentialTest : public ::testing::TestWithParam<NetCase> {};

TEST_P(NetDifferentialTest, WireQueryMatchesInProcess) {
  const NetCase& c = GetParam();
  const Engine& engine = SharedEngine();
  SearchOptions options = BaseOptions();
  SearchResult reference = engine.Query(Keywords(), c.algorithm, options);
  ASSERT_FALSE(reference.answers.empty());

  Server server(&engine);
  ASSERT_TRUE(server.Start());
  testing::BackgroundCopies copies(c.shards - 1, [&] {
    auto other = Client::Connect("127.0.0.1", server.port(), {}, nullptr);
    if (other == nullptr) return false;
    NetResult r = other->Query(Keywords(), c.algorithm, options);
    return r.status == SubscribeStatus::kCompleted &&
           SameResult(r.answers, r.metrics, reference);
  });
  std::string error;
  auto client = Client::Connect("127.0.0.1", server.port(), {}, &error);
  ASSERT_NE(client, nullptr) << error;

  NetResult result = client->Query(Keywords(), c.algorithm, options);
  EXPECT_EQ(result.status, SubscribeStatus::kCompleted);
  ExpectSameAnswers(result.answers, reference.answers);
  ExpectSameDeterministicMetrics(result.metrics, reference.metrics);
  EXPECT_EQ(copies.Join(), 0u) << "a concurrent client diverged";
}

TEST_P(NetDifferentialTest, PullStreamMatchesInProcess) {
  const NetCase& c = GetParam();
  const Engine& engine = SharedEngine();
  SearchOptions options = BaseOptions();
  SearchResult reference = engine.Query(Keywords(), c.algorithm, options);
  ASSERT_FALSE(reference.answers.empty());

  Server server(&engine);
  ASSERT_TRUE(server.Start());
  testing::BackgroundCopies copies(c.shards - 1, [&] {
    auto other = Client::Connect("127.0.0.1", server.port(), {}, nullptr);
    if (other == nullptr) return false;
    ClientStream stream = other->OpenStream(Keywords(), c.algorithm, options);
    std::vector<AnswerTree> answers;
    while (auto answer = stream.Next()) answers.push_back(std::move(*answer));
    return stream.status() == SubscribeStatus::kCompleted &&
           SameResult(answers, stream.metrics(), reference);
  });
  std::string error;
  auto client = Client::Connect("127.0.0.1", server.port(), {}, &error);
  ASSERT_NE(client, nullptr) << error;

  // Pull one answer per kNext credit — the server may run arbitrarily
  // ahead internally but releases answer frames only against credits.
  ClientStream stream = client->OpenStream(Keywords(), c.algorithm, options);
  std::vector<AnswerTree> answers;
  while (auto answer = stream.Next()) answers.push_back(std::move(*answer));
  EXPECT_EQ(stream.status(), SubscribeStatus::kCompleted);
  ExpectSameAnswers(answers, reference.answers);
  ExpectSameDeterministicMetrics(stream.metrics(), reference.metrics);
  EXPECT_EQ(copies.Join(), 0u) << "a concurrent client diverged";
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, NetDifferentialTest,
    ::testing::Values(NetCase{Algorithm::kBackwardMI, 1},
                      NetCase{Algorithm::kBackwardSI, 1},
                      NetCase{Algorithm::kBidirectional, 1},
                      NetCase{Algorithm::kBackwardMI, 4},
                      NetCase{Algorithm::kBackwardSI, 4},
                      NetCase{Algorithm::kBidirectional, 4}),
    NetCaseName);

// ---- Backpressure: slow reader parks the task, bounded server memory -----

TEST(NetServer, SlowReaderParksOnCreditsWithBoundedBuffering) {
  const Engine& engine = SharedEngine();
  SearchOptions options = BaseOptions();
  options.k = 300;  // enough answer bytes to overflow the tiny buffers
  SearchResult reference =
      engine.Query({"paper", "author"}, Algorithm::kBidirectional, options);
  ASSERT_GE(reference.answers.size(), 100u)
      << "workload must release many answers for this test";

  ServerOptions server_options;
  server_options.credit_window = 4;
  server_options.send_buffer_bytes = 1;  // kernel clamps to its minimum
  Server server(&engine, server_options);
  ASSERT_TRUE(server.Start());

  ClientOptions client_options;
  client_options.recv_buffer_bytes = 1;
  std::string error;
  auto client =
      Client::Connect("127.0.0.1", server.port(), client_options, &error);
  ASSERT_NE(client, nullptr) << error;

  // Open a push subscription and DON'T read: the kernel buffers fill,
  // answer frames stop flushing, no credits are granted, and the task —
  // its search long since finished — must park in credit-wait holding
  // zero pool leases (detached into compact StreamState).
  ClientStream stream =
      client->Subscribe({"paper", "author"}, Algorithm::kBidirectional,
                        options);
  Scheduler& scheduler = server.scheduler();
  ASSERT_TRUE(PollFor([&] {
    Scheduler::Stats stats = scheduler.Snapshot();
    return stats.credit_waiting == 1 && stats.contexts_attached == 0;
  })) << "slow reader's task never parked in credit-wait";
  EXPECT_EQ(scheduler.context_pool().leased(), 0u);

  // The first park need not be the last: the kernel may still move
  // bytes into the unread receive buffer, and every frame that then
  // flushes grants a credit and resumes delivery. Settle first: wait
  // until frames_sent holds still over an interval, parked.
  ASSERT_TRUE(PollFor([&] {
    uint64_t sent = server.stats().frames_sent;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Scheduler::Stats settled = scheduler.Snapshot();
    return server.stats().frames_sent == sent &&
           settled.credit_waiting == 1 && settled.contexts_attached == 0;
  })) << "slow reader's socket never stopped taking frames";

  // Parked means parked: the state must hold while the reader stays
  // stalled, with server-side buffering bounded by the credit window
  // (W answer frames at most; +1 for a final that cannot exist yet).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Scheduler::Stats stats = scheduler.Snapshot();
  EXPECT_EQ(stats.credit_waiting, 1u);
  EXPECT_EQ(stats.contexts_attached, 0u);
  EXPECT_EQ(scheduler.context_pool().leased(), 0u);
  EXPECT_LE(server.stats().output_backlog_frames,
            server_options.credit_window + 1);

  // Resume reading: delivery restarts off the compact state and the
  // full sequence arrives intact — byte-identical to the reference.
  NetResult result = stream.Drain();
  EXPECT_EQ(result.status, SubscribeStatus::kCompleted);
  ExpectSameAnswers(result.answers, reference.answers);
  ExpectSameDeterministicMetrics(result.metrics, reference.metrics);
}

// ---- Mid-stream disconnect cancels the task ------------------------------

TEST(NetServer, MidStreamDisconnectCancelsTask) {
  const Engine& engine = SharedEngine();
  SearchOptions options = BaseOptions();
  options.k = 300;

  ServerOptions server_options;
  server_options.credit_window = 4;
  server_options.send_buffer_bytes = 1;
  Server server(&engine, server_options);
  ASSERT_TRUE(server.Start());

  ClientOptions client_options;
  client_options.recv_buffer_bytes = 1;
  std::string error;
  auto client =
      Client::Connect("127.0.0.1", server.port(), client_options, &error);
  ASSERT_NE(client, nullptr) << error;
  ClientStream stream =
      client->Subscribe({"paper", "author"}, Algorithm::kBidirectional,
                        options);
  ASSERT_TRUE(static_cast<bool>(stream));
  Scheduler& scheduler = server.scheduler();
  ASSERT_TRUE(PollFor(
      [&] { return scheduler.Snapshot().credit_waiting == 1; }));

  // Abrupt disconnect with the request still open: the server must
  // cancel the task (scheduler sees a terminal kCancelled), release
  // every lease, and drop the connection's buffered frames.
  client.reset();
  EXPECT_TRUE(PollFor([&] { return server.stats().requests_open == 0; }))
      << "request still open after disconnect";
  EXPECT_TRUE(PollFor([&] { return server.stats().connections_open == 0; }));
  Scheduler::Stats stats = scheduler.Snapshot();
  EXPECT_EQ(stats.credit_waiting, 0u);
  EXPECT_EQ(stats.contexts_attached, 0u);
  EXPECT_EQ(scheduler.context_pool().leased(), 0u);
  EXPECT_GE(stats.cancelled, 1u);
  EXPECT_TRUE(PollFor([&] { return server.stats().output_backlog_frames == 0; }));

  // The server survives and serves fresh connections.
  auto fresh = Client::Connect("127.0.0.1", server.port(), {}, &error);
  ASSERT_NE(fresh, nullptr) << error;
  NetResult result =
      fresh->Query(Keywords(), Algorithm::kBidirectional, BaseOptions());
  EXPECT_EQ(result.status, SubscribeStatus::kCompleted);
  EXPECT_FALSE(result.answers.empty());
}

// ---- Request lifecycle: no idle timer, sinks outlive the server ----------

TEST(NetServer, IdlePullStreamLeavesTheLoopAsleep) {
  const Engine& engine = SharedEngine();
  Server server(&engine);
  ASSERT_TRUE(server.Start());
  std::string error;
  auto client = Client::Connect("127.0.0.1", server.port(), {}, &error);
  ASSERT_NE(client, nullptr) << error;

  // A pull stream with zero credits: its search finishes and parks in
  // credit-wait, and no frame moves. An open request is no reason for
  // the event loop to wake.
  ClientStream stream =
      client->OpenStream(Keywords(), Algorithm::kBidirectional, BaseOptions(),
                         /*deadline_seconds=*/0, /*initial_credits=*/0);
  ASSERT_TRUE(PollFor([&] {
    return server.scheduler().Snapshot().credit_waiting == 1 &&
           server.stats().requests_open == 1;
  }));
  const uint64_t wakeups = server.stats().loop_wakeups;
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_EQ(server.stats().loop_wakeups, wakeups)
      << "the loop woke with nothing to do";

  // Still live: a credit releases the next answer.
  EXPECT_TRUE(stream.Next().has_value());
}

TEST(NetServer, RequestOutlivesDestroyedServer) {
  const Engine& engine = SharedEngine();
  // External manual-drive scheduler: the request's task cannot end until
  // this test drives it, which it does only after the Server is gone.
  SchedulerOptions scheduler_options;
  scheduler_options.num_workers = 0;
  Scheduler scheduler(scheduler_options);
  {
    ServerOptions server_options;
    server_options.scheduler = &scheduler;
    Server server(&engine, server_options);
    ASSERT_TRUE(server.Start());
    std::string error;
    auto client = Client::Connect("127.0.0.1", server.port(), {}, &error);
    ASSERT_NE(client, nullptr) << error;
    ClientStream stream =
        client->Subscribe(Keywords(), Algorithm::kBidirectional, BaseOptions());
    ASSERT_TRUE(static_cast<bool>(stream));
    ASSERT_TRUE(PollFor([&] { return server.stats().requests_open == 1; }));
    client.reset();  // disconnect: the server cancels the open request
    ASSERT_TRUE(PollFor([&] { return server.stats().connections_open == 0; }));
    EXPECT_EQ(server.stats().requests_open, 1u);  // cancelled, not yet ended
  }
  // The Server is destroyed with the task still open. Driving it to its
  // end runs the sink's terminal OnComplete, which must touch only state
  // that outlived the Server.
  while (scheduler.DriveOne()) {
  }
  Scheduler::Stats stats = scheduler.Snapshot();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.runnable + stats.executing + stats.admission_queued, 0u);
  EXPECT_EQ(scheduler.context_pool().leased(), 0u);
}

// ---- Malformed input ------------------------------------------------------

/// Raw-socket helper for protocol-abuse tests: speaks bytes, not the
/// Client's well-formed frames.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  bool Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, 0);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool Handshake() {
    WireWriter w;
    WriteHello(&w, HelloRequest{});
    if (!Send(EncodeFrame(FrameType::kHello, 0, w.data()))) return false;
    FrameHeader header;
    std::string payload;
    return RecvFrame(&header, &payload) &&
           header.type == static_cast<uint8_t>(FrameType::kHelloOk);
  }

  /// Reads one frame (poll-timeout 5s per read).
  bool RecvFrame(FrameHeader* header, std::string* payload) {
    char raw[kFrameHeaderBytes];
    if (!RecvExact(raw, sizeof raw)) return false;
    if (!DecodeHeader(raw, kDefaultMaxFrameBytes, header)) return false;
    payload->resize(header->payload_bytes);
    return RecvExact(payload->data(), payload->size());
  }

  /// True if the server closes the connection (EOF) within 5 seconds,
  /// skipping any still-buffered frames before the close.
  bool RecvEof() {
    char buf[4096];
    for (;;) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 5000) <= 0) return false;
      ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n == 0) return true;
      if (n < 0) return errno != EAGAIN && errno != EWOULDBLOCK;
    }
  }

 private:
  bool RecvExact(char* buf, size_t n) {
    size_t off = 0;
    while (off < n) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 5000) <= 0) return false;
      ssize_t r = ::recv(fd_, buf + off, n - off, 0);
      if (r <= 0) return false;
      off += static_cast<size_t>(r);
    }
    return true;
  }

  int fd_ = -1;
};

std::string ErrorFrameOf(RawConn* conn, ErrorCode* code) {
  FrameHeader header;
  std::string payload;
  if (!conn->RecvFrame(&header, &payload)) return "no frame";
  if (header.type != static_cast<uint8_t>(FrameType::kError)) {
    return "not an error frame";
  }
  WireReader r(payload);
  ErrorReply reply;
  if (!ReadErrorReply(&r, &reply)) return "bad error payload";
  *code = reply.code;
  return "";
}

TEST(NetServer, MalformedFramesRejectedWithoutCrashing) {
  const Engine& engine = SharedEngine();
  Server server(&engine);
  ASSERT_TRUE(server.Start());

  {  // Garbage bytes: an absurd header is fatal before any parsing.
    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.Send(std::string(64, '\xff')));
    EXPECT_TRUE(conn.RecvEof()) << "server must close on garbage input";
  }
  {  // Oversized announcement: payload_bytes beyond the frame cap.
    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    std::string frame = EncodeFrame(FrameType::kHello, 0, "");
    uint32_t huge = 512u << 20;
    std::memcpy(frame.data(), &huge, sizeof huge);
    ASSERT_TRUE(conn.Send(frame));
    ErrorCode code;
    EXPECT_EQ(ErrorFrameOf(&conn, &code), "");
    EXPECT_EQ(code, ErrorCode::kBadFrame);
    EXPECT_TRUE(conn.RecvEof());
  }
  {  // Hello gating: any other first frame is fatal.
    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.Send(EncodeFrame(FrameType::kPing, 0, "")));
    ErrorCode code;
    EXPECT_EQ(ErrorFrameOf(&conn, &code), "");
    EXPECT_EQ(code, ErrorCode::kHelloRequired);
    EXPECT_TRUE(conn.RecvEof());
  }
  {  // Bad hello magic (e.g. an endianness-mismatched peer).
    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    WireWriter w;
    HelloRequest hello;
    hello.magic = 0xdeadbeef;
    WriteHello(&w, hello);
    ASSERT_TRUE(conn.Send(EncodeFrame(FrameType::kHello, 0, w.data())));
    ErrorCode code;
    EXPECT_EQ(ErrorFrameOf(&conn, &code), "");
    EXPECT_EQ(code, ErrorCode::kBadMagic);
    EXPECT_TRUE(conn.RecvEof());
  }
  {  // Unknown type and truncated search payload after a valid
     // handshake: request-level errors; the connection stays usable.
    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.Handshake());
    std::string frame = EncodeFrame(FrameType::kHello, 3, "");
    frame[5] = 99;  // type byte: no such frame type
    ASSERT_TRUE(conn.Send(frame));
    ErrorCode code;
    EXPECT_EQ(ErrorFrameOf(&conn, &code), "");
    EXPECT_EQ(code, ErrorCode::kUnknownType);
    ASSERT_TRUE(conn.Send(EncodeFrame(FrameType::kQuery, 4, "\x01\x02")));
    EXPECT_EQ(ErrorFrameOf(&conn, &code), "");
    EXPECT_EQ(code, ErrorCode::kBadPayload);
    // Still alive: ping round-trips on the same connection.
    ASSERT_TRUE(conn.Send(EncodeFrame(FrameType::kPing, 5, "hi")));
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(conn.RecvFrame(&header, &payload));
    EXPECT_EQ(header.type, static_cast<uint8_t>(FrameType::kPong));
    EXPECT_EQ(payload, "hi");
  }
  {  // Truncated frame then abrupt close: nothing to answer, no crash.
    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.Send(std::string(7, 'x')));
  }

  EXPECT_GE(server.stats().protocol_errors, 5u);
  // The server survived all of it: a well-behaved client still works.
  std::string error;
  auto client = Client::Connect("127.0.0.1", server.port(), {}, &error);
  ASSERT_NE(client, nullptr) << error;
  NetResult result =
      client->Query(Keywords(), Algorithm::kBidirectional, BaseOptions());
  EXPECT_EQ(result.status, SubscribeStatus::kCompleted);
  EXPECT_FALSE(result.answers.empty());
}

// ---- Admission rejection & deadlines as wire statuses --------------------

TEST(NetServer, AdmissionRejectionSurfacesAsTerminalStatus) {
  const Engine& engine = SharedEngine();
  // External manual-drive scheduler: admission decisions are synchronous
  // and deterministic — one run slot, no queue, and nothing executes
  // until this test drives it.
  SchedulerOptions scheduler_options;
  scheduler_options.num_workers = 0;
  scheduler_options.max_running = 1;
  scheduler_options.max_queued = 0;
  Scheduler scheduler(scheduler_options);
  ServerOptions server_options;
  server_options.scheduler = &scheduler;
  Server server(&engine, server_options);
  ASSERT_TRUE(server.Start());

  std::string error;
  auto holder = Client::Connect("127.0.0.1", server.port(), {}, &error);
  ASSERT_NE(holder, nullptr) << error;
  auto rejected = Client::Connect("127.0.0.1", server.port(), {}, &error);
  ASSERT_NE(rejected, nullptr) << error;

  // First request takes the only run slot (admitted, undriven) ...
  ClientStream held =
      holder->Subscribe(Keywords(), Algorithm::kBidirectional, BaseOptions());
  ASSERT_TRUE(PollFor([&] { return server.stats().requests_open == 1; }));
  // ... so the second is rejected at admission, surfacing as a typed
  // terminal kFinal — a protocol-visible error, not a dropped byte.
  NetResult overflow =
      rejected->Query(Keywords(), Algorithm::kBidirectional, BaseOptions());
  EXPECT_EQ(overflow.status, SubscribeStatus::kRejected);
  EXPECT_TRUE(overflow.answers.empty());

  // Drive the held request to completion from this thread; its k (8)
  // fits the default credit window, so no flush-grants are needed
  // before the terminal push.
  SearchResult reference =
      engine.Query(Keywords(), Algorithm::kBidirectional, BaseOptions());
  ASSERT_TRUE(PollFor([&] {
    while (scheduler.DriveOne()) {
    }
    return server.stats().requests_open == 0;
  }));
  NetResult result = held.Drain();
  EXPECT_EQ(result.status, SubscribeStatus::kCompleted);
  ExpectSameAnswers(result.answers, reference.answers);
}

TEST(NetServer, DeadlineExpiresAsTerminalStatus) {
  const Engine& engine = SharedEngine();
  SchedulerOptions scheduler_options;
  scheduler_options.num_workers = 0;  // manual: the deadline passes
                                      // before anything runs
  Scheduler scheduler(scheduler_options);
  ServerOptions server_options;
  server_options.scheduler = &scheduler;
  Server server(&engine, server_options);
  ASSERT_TRUE(server.Start());

  std::string error;
  auto client = Client::Connect("127.0.0.1", server.port(), {}, &error);
  ASSERT_NE(client, nullptr) << error;
  ClientStream stream =
      client->Subscribe(Keywords(), Algorithm::kBidirectional, BaseOptions(),
                        /*deadline_seconds=*/1e-3);
  ASSERT_TRUE(PollFor([&] { return server.stats().requests_open == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(PollFor([&] {
    while (scheduler.DriveOne()) {
    }
    return server.stats().requests_open == 0;
  }));
  NetResult result = stream.Drain();
  EXPECT_EQ(result.status, SubscribeStatus::kDeadlineExpired);
}

// ---- Graceful shutdown ----------------------------------------------------

TEST(NetServer, ShutdownDrainsInFlightRequests) {
  const Engine& engine = SharedEngine();
  SearchOptions options = BaseOptions();
  options.k = 300;

  ServerOptions server_options;
  server_options.credit_window = 4;
  server_options.send_buffer_bytes = 1;
  Server server(&engine, server_options);
  ASSERT_TRUE(server.Start());

  ClientOptions client_options;
  client_options.recv_buffer_bytes = 1;
  std::string error;
  auto client =
      Client::Connect("127.0.0.1", server.port(), client_options, &error);
  ASSERT_NE(client, nullptr) << error;

  // A stalled push subscription: search finished, delivery parked on
  // credits — in flight from the server's point of view.
  ClientStream stream =
      client->Subscribe({"paper", "author"}, Algorithm::kBidirectional,
                        options);
  ASSERT_TRUE(PollFor([&] {
    return server.scheduler().Snapshot().credit_waiting == 1;
  }));

  // Shutdown must not hang on it, and the client must still observe a
  // terminal status. The client resumes reading concurrently, so either
  // the drain completes the delivery (kCompleted) or the grace deadline
  // cancels it (kCancelled) — both end with OnComplete flushed and the
  // connection closed; what may NOT happen is a hang or a lost final.
  std::thread shutdown([&] { server.Shutdown(/*drain_seconds=*/0.5); });
  NetResult result = stream.Drain();
  shutdown.join();
  EXPECT_TRUE(result.status == SubscribeStatus::kCompleted ||
              result.status == SubscribeStatus::kCancelled)
      << "terminal status: " << SubscribeStatusName(result.status);
  EXPECT_EQ(server.stats().connections_open, 0u);
  EXPECT_EQ(server.stats().requests_open, 0u);
  EXPECT_EQ(server.scheduler().context_pool().leased(), 0u);
  EXPECT_EQ(server.stats().output_backlog_frames, 0u);
}

}  // namespace
}  // namespace banks::net
