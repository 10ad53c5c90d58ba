// Serving-core tests: cooperative Scheduler + push subscriptions.
//
// The load-bearing property is the differential one — a subscription's
// pushed answer sequence must be byte-identical to the drained Query,
// for every algorithm, quantum size and number of concurrent copies,
// because quanta only decide when Resume returns, never what the search
// computes. Around it: fair queueing (stride, equal shares within
// tolerance on a manually-driven scheduler), a first quantum that ends
// at the first released answer, admission control (queued tasks hold
// zero context leases; overflow is rejected with a terminal push),
// scheduler-enforced deadlines and cancellation (contexts come back
// warm), and delivery-credit flow control with detach into compact
// StreamState.

#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "banks/engine.h"
#include "datasets/dblp_gen.h"
#include "search/answer_stream.h"
#include "search/context_pool.h"
#include "search/searcher.h"
#include "serve/queue_sink.h"
#include "test_util.h"

namespace banks {
namespace {

using testing::MakeRandomGraph;

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

/// Pops everything out of a finished QueueSink, in push order.
std::vector<AnswerTree> DrainSink(QueueSink* sink) {
  std::vector<AnswerTree> out;
  AnswerTree tree;
  while (sink->TryPop(&tree)) out.push_back(std::move(tree));
  return out;
}

/// A workload big enough to span many quanta: uniform prestige, two
/// keyword origin sets spread over a pseudo-random graph.
struct Workload {
  Graph graph;
  std::vector<double> prestige;
  std::vector<std::vector<NodeId>> origins;
  SearchOptions options;

  explicit Workload(uint64_t seed = 7, size_t nodes = 600,
                    size_t edges = 2400) {
    graph = MakeRandomGraph(nodes, edges, seed);
    prestige.assign(graph.num_nodes(), 1.0);
    origins = {{1, 5, 9, 33}, {2, 11, 17, 54}, {3, 23, 71}};
    options.k = 10;
  }

  std::unique_ptr<Searcher> NewSearcher(
      Algorithm algorithm = Algorithm::kBidirectional) const {
    return CreateSearcher(algorithm, graph, prestige, options);
  }

  SearchResult Reference(Algorithm algorithm = Algorithm::kBidirectional)
      const {
    return NewSearcher(algorithm)->Search(origins);
  }

  TaskSpec Spec(AnswerSink* sink,
                Algorithm algorithm = Algorithm::kBidirectional) const {
    TaskSpec spec;
    spec.searcher = NewSearcher(algorithm);
    spec.origins = origins;
    spec.sink = sink;
    return spec;
  }
};

/// Drives a manual-mode scheduler until the subscription finishes (with
/// a decision-count safety net so a bug fails instead of hanging).
SubscribeStatus DriveToFinish(Scheduler* scheduler, const Subscription& sub,
                              size_t max_decisions = 1'000'000) {
  for (size_t i = 0; i < max_decisions && !sub.finished(); ++i) {
    if (!scheduler->DriveOne()) {
      // Nothing runnable: only legitimate when the task waits on
      // credits or admission; the caller handles those states.
      break;
    }
  }
  return sub.status();
}

// ---- Differential: Subscribe ≡ Query, per algorithm × copies × quantum ---

struct ServeCase {
  Algorithm algorithm;
  /// Copies of the subscription submitted at once, each with its own
  /// sink, competing for the same workers. (`ShardsN` is the historical
  /// instance suffix, from when N was the intra-query shard count.)
  uint8_t shards;
  /// SchedulerOptions::quantum_steps; deliberately tiny so the search is
  /// chopped into many slices — 1 pauses after every expansion.
  uint8_t quantum_steps;
  /// SchedulerOptions::num_workers serving the copies.
  uint16_t workers = 2;
};

std::string ServeCaseName(const ::testing::TestParamInfo<ServeCase>& info) {
  const ServeCase& c = info.param;
  std::string name = AlgorithmName(c.algorithm);
  name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
  name += "Shards" + std::to_string(c.shards);
  if (c.quantum_steps != 3) name += "Quantum" + std::to_string(c.quantum_steps);
  if (c.workers != 2) name += "Workers" + std::to_string(c.workers);
  return name;
}

class SchedulerDifferentialTest : public ::testing::TestWithParam<ServeCase> {
};

TEST_P(SchedulerDifferentialTest, SubscribeMatchesDrainedQuery) {
  const ServeCase& c = GetParam();
  Workload w;
  SearchResult reference = w.Reference(c.algorithm);
  ASSERT_FALSE(reference.answers.empty());

  // Worker-backed scheduler whose quanta pause the search many times —
  // the differential must hold for any pause pattern.
  SchedulerOptions so;
  so.num_workers = c.workers;
  so.quantum_steps = c.quantum_steps;
  Scheduler scheduler(so);
  std::vector<QueueSink> sinks(c.shards);
  std::vector<Subscription> subs;
  for (QueueSink& sink : sinks) {
    subs.push_back(scheduler.Submit(w.Spec(&sink, c.algorithm)));
    EXPECT_EQ(subs.back().admission(), AdmissionState::kAdmitted);
  }
  for (size_t copy = 0; copy < subs.size(); ++copy) {
    SCOPED_TRACE("copy " + std::to_string(copy));
    EXPECT_EQ(subs[copy].Wait(), SubscribeStatus::kCompleted);
    std::vector<AnswerTree> got = DrainSink(&sinks[copy]);
    ASSERT_EQ(got.size(), reference.answers.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(SameAnswer(got[i], reference.answers[i]))
          << "answer " << i << " differs";
    }
    ExpectSameDeterministicMetrics(sinks[copy].final_metrics(),
                                   reference.metrics);
    EXPECT_EQ(subs[copy].answers_delivered(), reference.answers.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Serve, SchedulerDifferentialTest,
    ::testing::Values(ServeCase{Algorithm::kBidirectional, 1, 3},
                      ServeCase{Algorithm::kBidirectional, 4, 3},
                      ServeCase{Algorithm::kBidirectional, 1, 1},
                      ServeCase{Algorithm::kBackwardSI, 1, 3},
                      ServeCase{Algorithm::kBackwardSI, 4, 3},
                      ServeCase{Algorithm::kBackwardSI, 1, 1},
                      ServeCase{Algorithm::kBackwardMI, 1, 3},
                      ServeCase{Algorithm::kBackwardMI, 4, 3},
                      ServeCase{Algorithm::kBackwardMI, 1, 1},
                      ServeCase{Algorithm::kBidirectional, 8, 3, 4},
                      ServeCase{Algorithm::kBidirectional, 8, 3, 8},
                      ServeCase{Algorithm::kBackwardSI, 8, 3, 4},
                      ServeCase{Algorithm::kBackwardMI, 8, 3, 4}),
    ServeCaseName);

// ---- Fair queueing --------------------------------------------------------

TEST(SchedulerFairness, StrideServesTenantsByWeight) {
  // Manual drive: no worker threads, every scheduling decision happens
  // in DriveOne on this thread, so quanta counts are deterministic
  // modulo search length. Tenants "a" and "b" must receive equal
  // service while both stay backlogged.
  Workload w;
  SchedulerOptions so;
  so.num_workers = 0;
  so.quantum_steps = 4;
  so.quantum_seconds = 0;  // steps-only quanta: no wall-clock noise
  Scheduler scheduler(so);

  auto submit = [&](const std::string& tenant) {
    auto sink = std::make_unique<QueueSink>();
    TaskSpec spec = w.Spec(sink.get());
    spec.tenant = tenant;
    Subscription sub = scheduler.Submit(std::move(spec));
    return std::pair(std::move(sink), sub);
  };
  std::vector<std::pair<std::unique_ptr<QueueSink>, Subscription>> subs;
  for (int i = 0; i < 6; ++i) subs.push_back(submit("a"));
  for (int i = 0; i < 6; ++i) subs.push_back(submit("b"));

  // Drive while BOTH tenants still have live tasks; the stride ratio is
  // only defined while both are backlogged.
  uint64_t a_quanta = 0;
  uint64_t b_quanta = 0;
  while (scheduler.DriveOne()) {
    Scheduler::Stats stats = scheduler.Snapshot();
    bool both_open = true;
    for (const auto& t : stats.tenants) {
      if (t.open_tasks == 0) both_open = false;
    }
    if (!both_open) break;
    a_quanta = stats.tenants[0].quanta;  // sorted by name: "a" then "b"
    b_quanta = stats.tenants[1].quanta;
  }
  ASSERT_GT(b_quanta, 10u) << "workload too short to measure fairness";
  double ratio = static_cast<double>(a_quanta) / static_cast<double>(b_quanta);
  EXPECT_GT(ratio, 1.0 * 0.75) << "a=" << a_quanta << " b=" << b_quanta;
  EXPECT_LT(ratio, 1.0 * 1.25) << "a=" << a_quanta << " b=" << b_quanta;

  for (auto& [sink, sub] : subs) {
    DriveToFinish(&scheduler, sub);
    EXPECT_EQ(sub.status(), SubscribeStatus::kCompleted);
  }
}

// ---- Time to first answer -------------------------------------------------

TEST(SchedulerFirstAnswer, FirstQuantumEndsAtFirstRelease) {
  // Unbounded quanta (no step or time budget): without the first-answer
  // rule the first quantum would run the whole search. A loose bound
  // releases early, so the first quantum must stop at that release,
  // deliver it, and leave the rest of the search for later quanta.
  Workload w;
  w.options.bound = BoundMode::kLoose;
  SearchResult reference = w.Reference();
  ASSERT_GE(reference.answers.size(), 2u);

  SchedulerOptions so;
  so.num_workers = 0;
  so.quantum_steps = 0;
  so.quantum_seconds = 0;
  Scheduler scheduler(so);
  QueueSink sink;
  Subscription sub = scheduler.Submit(w.Spec(&sink));
  ASSERT_TRUE(scheduler.DriveOne());
  EXPECT_EQ(scheduler.Snapshot().quanta, 1u);
  EXPECT_GE(sub.answers_delivered(), 1u);
  EXPECT_LT(sub.answers_delivered(), reference.answers.size());
  EXPECT_FALSE(sub.finished());
  EXPECT_EQ(scheduler.Snapshot().runnable, 1u) << "search must go on";

  // The rest of the search still yields exactly the drained sequence.
  DriveToFinish(&scheduler, sub);
  EXPECT_EQ(sub.status(), SubscribeStatus::kCompleted);
  std::vector<AnswerTree> got = DrainSink(&sink);
  ASSERT_EQ(got.size(), reference.answers.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(SameAnswer(got[i], reference.answers[i]));
  }
  ExpectSameDeterministicMetrics(sink.final_metrics(), reference.metrics);
}

// ---- Admission control ----------------------------------------------------

TEST(SchedulerAdmission, QueuedTaskHoldsNoContextLease) {
  Workload w;
  SchedulerOptions so;
  so.num_workers = 0;
  so.max_running = 1;
  so.quantum_steps = 2;
  Scheduler scheduler(so);
  SearchContextPool& pool = scheduler.context_pool();

  // Synthetic epoch pins (as Engine::Subscribe would attach): the pin
  // must live exactly as long as its task, leases or not.
  auto snap_a = std::make_shared<int>(0);
  auto snap_b = std::make_shared<int>(0);
  std::weak_ptr<int> watch_a = snap_a;
  std::weak_ptr<int> watch_b = snap_b;

  QueueSink sink_a;
  QueueSink sink_b;
  TaskSpec spec_a = w.Spec(&sink_a);
  spec_a.epoch_pin = EpochPin{std::move(snap_a), 3};
  Subscription a = scheduler.Submit(std::move(spec_a));
  EXPECT_EQ(a.admission(), AdmissionState::kAdmitted);
  ASSERT_TRUE(scheduler.DriveOne());  // a runs its first quantum: attaches
  EXPECT_EQ(pool.leased(), 1u);

  TaskSpec spec_b = w.Spec(&sink_b);
  spec_b.epoch_pin = EpochPin{std::move(snap_b), 7};
  Subscription b = scheduler.Submit(std::move(spec_b));
  EXPECT_EQ(b.admission(), AdmissionState::kQueued);
  ASSERT_TRUE(scheduler.DriveOne());  // serves a again; b stays queued
  Scheduler::Stats stats = scheduler.Snapshot();
  EXPECT_EQ(stats.admission_queued, 1u);
  EXPECT_EQ(stats.contexts_attached, 1u);
  // The acceptance property: an admitted-but-queued subscription holds
  // ZERO SearchContextPool leases — only the running task has one.
  EXPECT_EQ(pool.leased(), 1u);
  EXPECT_EQ(pool.size(), 1u);
  // ...but it DOES hold its epoch pin: both snapshots are alive, and
  // oldest_live_epoch is the reclamation bound an updater would see.
  EXPECT_FALSE(watch_b.expired());
  EXPECT_EQ(stats.pinned_epochs, 2u);
  EXPECT_EQ(stats.oldest_live_epoch, 3u);

  // Cancelling the runner frees the slot; b is promoted and completes.
  a.Cancel();
  DriveToFinish(&scheduler, b);
  EXPECT_EQ(a.status(), SubscribeStatus::kCancelled);
  EXPECT_EQ(b.status(), SubscribeStatus::kCompleted);
  EXPECT_EQ(pool.leased(), 0u);
  // Terminal transitions released both pins with the tasks' other
  // resources — nothing keeps the snapshots alive now.
  EXPECT_TRUE(watch_a.expired());
  EXPECT_TRUE(watch_b.expired());
  stats = scheduler.Snapshot();
  EXPECT_EQ(stats.pinned_epochs, 0u);
  EXPECT_EQ(stats.oldest_live_epoch, 0u);
}

TEST(SchedulerAdmission, OverflowIsRejectedWithTerminalPush) {
  Workload w;
  SchedulerOptions so;
  so.num_workers = 0;
  so.max_running = 1;
  so.max_queued = 1;
  Scheduler scheduler(so);

  QueueSink s1, s2, s3;
  auto snap_c = std::make_shared<int>(0);
  std::weak_ptr<int> watch_c = snap_c;
  Subscription a = scheduler.Submit(w.Spec(&s1));
  Subscription b = scheduler.Submit(w.Spec(&s2));
  TaskSpec spec_c = w.Spec(&s3);
  spec_c.epoch_pin = EpochPin{std::move(snap_c), 9};
  Subscription c = scheduler.Submit(std::move(spec_c));
  EXPECT_EQ(a.admission(), AdmissionState::kAdmitted);
  EXPECT_EQ(b.admission(), AdmissionState::kQueued);
  EXPECT_EQ(c.admission(), AdmissionState::kRejected);
  // The rejection is terminal before Submit returned, on this thread.
  EXPECT_EQ(c.status(), SubscribeStatus::kRejected);
  EXPECT_EQ(s3.status(), SubscribeStatus::kRejected);
  EXPECT_TRUE(s3.exhausted());
  // A rejected task never reaches the scheduler's terminal step, so
  // Submit itself must have dropped the pin — a leak here would block
  // epoch reclamation forever.
  EXPECT_TRUE(watch_c.expired());

  Scheduler::Stats stats = scheduler.Snapshot();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.queued, 1u);
  EXPECT_EQ(stats.rejected, 1u);

  DriveToFinish(&scheduler, a);
  DriveToFinish(&scheduler, b);
  EXPECT_EQ(a.status(), SubscribeStatus::kCompleted);
  EXPECT_EQ(b.status(), SubscribeStatus::kCompleted);
}

// ---- Deadlines & cancellation ---------------------------------------------

TEST(SchedulerDeadline, ExpiredTaskIsCancelledAndContextStaysWarm) {
  Workload w;
  SchedulerOptions so;
  so.num_workers = 0;
  so.quantum_steps = 1;
  Scheduler scheduler(so);
  SearchContextPool& pool = scheduler.context_pool();

  // An already-expired deadline: the first scheduling decision sweeps
  // the task out without it ever running a quantum.
  {
    QueueSink sink;
    TaskSpec spec = w.Spec(&sink);
    spec.deadline_seconds = 1e-9;
    Subscription sub = scheduler.Submit(std::move(spec));
    while (!sub.finished()) scheduler.DriveOne();
    EXPECT_EQ(sub.status(), SubscribeStatus::kDeadlineExpired);
    EXPECT_EQ(sink.status(), SubscribeStatus::kDeadlineExpired);
    EXPECT_EQ(pool.leased(), 0u);
    EXPECT_EQ(scheduler.Snapshot().deadline_expired, 1u);
  }

  // Cancel mid-search: run a few quanta, cancel, and verify the leased
  // context went back to the pool — and is reused warm by the next
  // subscription (the pool never grows past one context).
  {
    QueueSink sink;
    Subscription sub = scheduler.Submit(w.Spec(&sink));
    ASSERT_TRUE(scheduler.DriveOne());
    ASSERT_TRUE(scheduler.DriveOne());
    EXPECT_EQ(pool.leased(), 1u);
    sub.Cancel();
    while (!sub.finished()) scheduler.DriveOne();
    EXPECT_EQ(sub.status(), SubscribeStatus::kCancelled);
    EXPECT_EQ(pool.leased(), 0u);
  }
  {
    SearchResult reference = w.Reference();
    QueueSink sink;
    Subscription sub = scheduler.Submit(w.Spec(&sink));
    DriveToFinish(&scheduler, sub);
    EXPECT_EQ(sub.status(), SubscribeStatus::kCompleted);
    std::vector<AnswerTree> got = DrainSink(&sink);
    ASSERT_EQ(got.size(), reference.answers.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(SameAnswer(got[i], reference.answers[i]));
    }
  }
  EXPECT_EQ(pool.size(), 1u) << "cancelled contexts must be reused warm";

  // A deadline never fires early, and each expired task counts once:
  // two credit-starved tasks finish their searches and wait parked with
  // the same deadline; neither may expire before it, both expire at it,
  // and further sweeps count nothing more.
  {
    constexpr double kDeadline = 0.05;
    QueueSink sink_a, sink_b;
    Timer since_submit;
    std::vector<Subscription> subs;
    for (QueueSink* sink : {&sink_a, &sink_b}) {
      TaskSpec spec = w.Spec(sink);
      spec.deadline_seconds = kDeadline;
      spec.answer_credits = 0;
      subs.push_back(scheduler.Submit(std::move(spec)));
    }
    size_t finished = 0;
    while (finished < subs.size()) {
      scheduler.DriveOne();
      const size_t now_finished = static_cast<size_t>(subs[0].finished()) +
                                  static_cast<size_t>(subs[1].finished());
      if (now_finished > finished) {
        EXPECT_GE(since_submit.ElapsedSeconds(), kDeadline) << "fired early";
        finished = now_finished;
      }
      EXPECT_EQ(scheduler.Snapshot().deadline_expired, 1u + finished);
    }
    EXPECT_EQ(subs[0].status(), SubscribeStatus::kDeadlineExpired);
    EXPECT_EQ(subs[1].status(), SubscribeStatus::kDeadlineExpired);
    for (int i = 0; i < 3; ++i) scheduler.DriveOne();
    EXPECT_EQ(scheduler.Snapshot().deadline_expired, 3u);
    EXPECT_EQ(pool.leased(), 0u);
  }
}

TEST(SchedulerDeadline, WorkerEnforcesDeadlineWithoutCallerInvolvement) {
  // Worker-backed: the scheduler itself must notice the deadline — the
  // caller only Waits.
  Workload w(11, 1200, 5000);
  SchedulerOptions so;
  so.num_workers = 1;
  so.quantum_steps = 1;  // plenty of decision points
  Scheduler scheduler(so);
  QueueSink sink;
  TaskSpec spec = w.Spec(&sink);
  spec.deadline_seconds = 0.02;
  Subscription sub = scheduler.Submit(std::move(spec));
  SubscribeStatus status = sub.Wait();
  // On a fast machine the search may legitimately finish first; the
  // invariant is a terminal push of one of the two statuses.
  EXPECT_TRUE(status == SubscribeStatus::kDeadlineExpired ||
              status == SubscribeStatus::kCompleted);
  EXPECT_EQ(sink.status(), status);
}

// ---- Delivery credits & detach --------------------------------------------

TEST(SchedulerCredits, CreditStarvedTaskDetachesIntoStreamState) {
  Workload w;
  SearchResult reference = w.Reference();
  ASSERT_GE(reference.answers.size(), 2u)
      << "workload must yield several answers for this test";

  SchedulerOptions so;
  so.num_workers = 0;
  so.quantum_steps = 8;
  Scheduler scheduler(so);
  SearchContextPool& pool = scheduler.context_pool();

  QueueSink sink;
  TaskSpec spec = w.Spec(&sink);
  spec.answer_credits = 1;  // one answer may be pushed, then starve
  spec.epoch_pin = EpochPin{std::make_shared<int>(0), 4};
  Subscription sub = scheduler.Submit(std::move(spec));
  while (scheduler.DriveOne()) {
  }
  // The search ran to completion, one answer was pushed, and the task
  // now idles in credit-wait DETACHED: compact StreamState only, zero
  // context leases — but its epoch pin is still held (the undelivered
  // answers reference the snapshot's epoch until the terminal push).
  EXPECT_FALSE(sub.finished());
  EXPECT_EQ(sub.answers_delivered(), 1u);
  EXPECT_EQ(sink.buffered(), 1u);
  Scheduler::Stats stats = scheduler.Snapshot();
  EXPECT_EQ(stats.credit_waiting, 1u);
  EXPECT_EQ(stats.contexts_attached, 0u);
  EXPECT_EQ(pool.leased(), 0u);
  EXPECT_EQ(stats.pinned_epochs, 1u);
  EXPECT_EQ(stats.oldest_live_epoch, 4u);

  // Topping up credits resumes delivery-only quanta to completion.
  sub.AddCredits(kUnlimitedCredits / 2);
  DriveToFinish(&scheduler, sub);
  EXPECT_EQ(sub.status(), SubscribeStatus::kCompleted);
  std::vector<AnswerTree> got = DrainSink(&sink);
  ASSERT_EQ(got.size(), reference.answers.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(SameAnswer(got[i], reference.answers[i]));
  }
  ExpectSameDeterministicMetrics(sink.final_metrics(), reference.metrics);
}

TEST(SchedulerCredits, StarvedSubscriptionHoldsZeroLeasesAcrossManyQuanta) {
  // The slow-consumer guarantee the network layer leans on
  // (docs/NETWORK.md "Backpressure"): a subscription whose consumer
  // grants no credits parks in credit-wait holding ZERO pool leases —
  // not just momentarily, but across arbitrarily many quanta of other
  // tenants' work — and resumes losslessly once credits arrive.
  Workload w;
  SearchResult reference = w.Reference();
  ASSERT_GE(reference.answers.size(), 2u);

  SchedulerOptions so;
  so.num_workers = 0;
  so.quantum_steps = 8;
  Scheduler scheduler(so);
  SearchContextPool& pool = scheduler.context_pool();

  QueueSink starved_sink;
  TaskSpec starved_spec = w.Spec(&starved_sink);
  starved_spec.answer_credits = 0;  // consumer grants nothing up front
  Subscription starved = scheduler.Submit(std::move(starved_spec));
  while (scheduler.DriveOne()) {
  }
  EXPECT_FALSE(starved.finished());
  EXPECT_EQ(starved.answers_delivered(), 0u);
  EXPECT_EQ(scheduler.Snapshot().credit_waiting, 1u);
  EXPECT_EQ(pool.leased(), 0u);

  // Several full searches of a competing tenant come and go while the
  // starved task stays parked. At every single scheduling decision the
  // only lease in the pool may be the active task's — the parked one
  // contributes nothing (a leak here is exactly the unbounded-buffering
  // failure mode the credit design exists to prevent).
  for (int round = 0; round < 3; ++round) {
    QueueSink other_sink;
    TaskSpec other_spec = w.Spec(&other_sink);
    other_spec.tenant = "other";
    Subscription other = scheduler.Submit(std::move(other_spec));
    size_t quanta = 0;
    while (!other.finished()) {
      ASSERT_TRUE(scheduler.DriveOne()) << "competing task must progress";
      ASSERT_LE(pool.leased(), 1u) << "starved task must hold no lease";
      ++quanta;
    }
    EXPECT_GT(quanta, 1u) << "workload must span several quanta";
    EXPECT_EQ(other.status(), SubscribeStatus::kCompleted);
    Scheduler::Stats stats = scheduler.Snapshot();
    EXPECT_EQ(stats.credit_waiting, 1u);
    EXPECT_EQ(stats.contexts_attached, 0u);
    EXPECT_EQ(pool.leased(), 0u);
  }
  EXPECT_FALSE(starved.finished());
  EXPECT_EQ(starved.answers_delivered(), 0u);

  // One large grant resumes delivery-only quanta; the sequence and the
  // deterministic metrics must be exactly the drained reference's.
  starved.AddCredits(kUnlimitedCredits / 2);
  DriveToFinish(&scheduler, starved);
  EXPECT_EQ(starved.status(), SubscribeStatus::kCompleted);
  std::vector<AnswerTree> got = DrainSink(&starved_sink);
  ASSERT_EQ(got.size(), reference.answers.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(SameAnswer(got[i], reference.answers[i]));
  }
  ExpectSameDeterministicMetrics(starved_sink.final_metrics(),
                                 reference.metrics);
}

// ---- Engine front door: Subscribe + scheduler-backed AnswerStream --------

class ServeEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DblpConfig config;
    config.num_authors = 120;
    config.num_papers = 240;
    config.num_conferences = 10;
    db_ = new Database(GenerateDblp(config));
    engine_ = new Engine(Engine::FromDatabase(*db_));
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete db_;
  }
  static SearchOptions Options() {
    SearchOptions options;
    options.k = 5;
    options.max_nodes_explored = 100'000;
    return options;
  }
  static const std::vector<std::string>& Keywords() {
    static const std::vector<std::string> kw = {"conference", "author"};
    return kw;
  }
  static Database* db_;
  static Engine* engine_;
};

Database* ServeEngineTest::db_ = nullptr;
Engine* ServeEngineTest::engine_ = nullptr;

TEST_F(ServeEngineTest, SubscribeMatchesQuery) {
  SearchResult reference =
      engine_->Query(Keywords(), Algorithm::kBidirectional, Options());
  ASSERT_FALSE(reference.answers.empty());

  SchedulerOptions so;
  so.num_workers = 2;
  so.quantum_steps = 16;
  Scheduler scheduler(so);
  QueueSink sink;
  SubscribeOptions subscribe;
  subscribe.scheduler = &scheduler;
  Subscription sub = engine_->Subscribe(Keywords(), Algorithm::kBidirectional,
                                        &sink, Options(), subscribe);
  EXPECT_EQ(sub.Wait(), SubscribeStatus::kCompleted);
  std::vector<AnswerTree> got = DrainSink(&sink);
  ASSERT_EQ(got.size(), reference.answers.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(SameAnswer(got[i], reference.answers[i])) << i;
  }
  ExpectSameDeterministicMetrics(sink.final_metrics(), reference.metrics);
}

TEST_F(ServeEngineTest, ContextPoolStaysWarmAcrossRounds) {
  // Many queries in flight: one Subscribe per query, each into its own
  // sink, then Wait on them all. A second round of the same queries runs
  // on the contexts the first round warmed — the pool does not grow —
  // and every answer sequence equals the drained Query's. Manual drive
  // rotates the runnable tasks one quantum at a time, so every task of
  // a round holds its context at once and round 1 reaches the pool's
  // high-water mark deterministically.
  constexpr Algorithm kAlgos[] = {Algorithm::kBidirectional,
                                  Algorithm::kBackwardSI,
                                  Algorithm::kBidirectional,
                                  Algorithm::kBackwardSI};
  std::vector<SearchResult> references;
  for (Algorithm a : kAlgos) {
    references.push_back(engine_->Query(Keywords(), a, Options()));
  }
  SchedulerOptions so;
  so.num_workers = 0;
  so.quantum_steps = 16;
  Scheduler scheduler(so);
  SearchContextPool& pool = scheduler.context_pool();
  SubscribeOptions subscribe;
  subscribe.scheduler = &scheduler;
  size_t after_first = 0;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<QueueSink> sinks(std::size(kAlgos));
    std::vector<Subscription> subs;
    for (size_t i = 0; i < sinks.size(); ++i) {
      subs.push_back(engine_->Subscribe(Keywords(), kAlgos[i], &sinks[i],
                                        Options(), subscribe));
    }
    while (scheduler.DriveOne()) {
    }
    for (size_t i = 0; i < subs.size(); ++i) {
      ASSERT_EQ(subs[i].Wait(), SubscribeStatus::kCompleted) << i;
      std::vector<AnswerTree> got = DrainSink(&sinks[i]);
      ASSERT_EQ(got.size(), references[i].answers.size()) << i;
      for (size_t j = 0; j < got.size(); ++j) {
        EXPECT_TRUE(SameAnswer(got[j], references[i].answers[j])) << i;
      }
      ExpectSameDeterministicMetrics(sinks[i].final_metrics(),
                                     references[i].metrics);
    }
    EXPECT_EQ(pool.available(), pool.size());  // every lease returned
    if (round == 0) {
      after_first = pool.size();
      EXPECT_EQ(after_first, std::size(kAlgos));
    } else {
      EXPECT_EQ(pool.size(), after_first) << "warm contexts not reused";
    }
  }
}

TEST_F(ServeEngineTest, ScheduledStreamMatchesInlineStream) {
  // Pulling over the serving core: a Subscription delivering into a
  // QueueSink, popped one answer at a time, yields the inline stream's
  // sequence (which is the drained Query's, by the streaming contract).
  SearchResult reference =
      engine_->Query(Keywords(), Algorithm::kBidirectional, Options());
  ASSERT_FALSE(reference.answers.empty());

  SchedulerOptions so;
  so.num_workers = 1;
  so.quantum_steps = 16;
  Scheduler scheduler(so);
  QueueSink sink;
  SubscribeOptions subscribe;
  subscribe.scheduler = &scheduler;
  Subscription sub = engine_->Subscribe(Keywords(), Algorithm::kBidirectional,
                                        &sink, Options(), subscribe);
  size_t pulled = 0;
  while (auto answer = sink.Pop()) {
    ASSERT_LT(pulled, reference.answers.size());
    EXPECT_TRUE(SameAnswer(*answer, reference.answers[pulled])) << pulled;
    ++pulled;
  }
  EXPECT_EQ(pulled, reference.answers.size());
  EXPECT_TRUE(sink.exhausted());
  EXPECT_EQ(sub.Wait(), SubscribeStatus::kCompleted);
  EXPECT_EQ(sub.answers_delivered(), reference.answers.size());
  ExpectSameDeterministicMetrics(sink.final_metrics(), reference.metrics);
}

TEST_F(ServeEngineTest, AbandonedScheduledStreamCancelsItsSubscription) {
  SchedulerOptions so;
  so.num_workers = 1;
  so.quantum_steps = 8;
  Scheduler scheduler(so);
  {
    QueueSink sink;
    SubscribeOptions subscribe;
    subscribe.scheduler = &scheduler;
    Subscription sub = engine_->Subscribe(
        Keywords(), Algorithm::kBidirectional, &sink, Options(), subscribe);
    (void)sink.Pop();  // pull one answer, then abandon
    // The consumer's side of abandoning: cancel, then wait out the
    // terminal push before the sink goes away. No leak, no hang.
    sub.Cancel();
    SubscribeStatus status = sub.Wait();
    EXPECT_TRUE(status == SubscribeStatus::kCancelled ||
                status == SubscribeStatus::kCompleted)
        << SubscribeStatusName(status);
  }
  Scheduler::Stats stats = scheduler.Snapshot();
  EXPECT_EQ(stats.runnable + stats.executing + stats.credit_waiting +
                stats.admission_queued,
            0u);
  EXPECT_EQ(scheduler.context_pool().leased(), 0u);
}

// ---- Concurrency storm (ASan/TSan fodder) ---------------------------------

TEST(SchedulerStorm, ConcurrentTenantsDeliverIdenticalSequences) {
  constexpr Algorithm kAlgos[3] = {Algorithm::kBidirectional,
                                   Algorithm::kBackwardSI,
                                   Algorithm::kBackwardMI};
  Workload w;
  std::vector<SearchResult> references;
  for (Algorithm a : kAlgos) references.push_back(w.Reference(a));

  SchedulerOptions so;
  so.num_workers = 3;
  so.quantum_steps = 5;
  so.max_running = 4;
  Scheduler scheduler(so);

  constexpr size_t kPerThread = 6;
  constexpr size_t kThreads = 2;
  std::vector<std::unique_ptr<QueueSink>> sinks(kThreads * kPerThread);
  std::vector<Subscription> subs(kThreads * kPerThread);
  for (auto& s : sinks) s = std::make_unique<QueueSink>();

  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        size_t slot = t * kPerThread + i;
        TaskSpec spec = w.Spec(sinks[slot].get(), kAlgos[slot % 3]);
        spec.tenant = "tenant-" + std::to_string(t);
        subs[slot] = scheduler.Submit(std::move(spec));
      }
    });
  }
  for (auto& t : submitters) t.join();

  for (size_t slot = 0; slot < subs.size(); ++slot) {
    ASSERT_EQ(subs[slot].Wait(), SubscribeStatus::kCompleted) << slot;
    const SearchResult& ref = references[slot % 3];
    std::vector<AnswerTree> got = DrainSink(sinks[slot].get());
    ASSERT_EQ(got.size(), ref.answers.size()) << slot;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(SameAnswer(got[i], ref.answers[i]))
          << "slot " << slot << " answer " << i;
    }
  }
  Scheduler::Stats stats = scheduler.Snapshot();
  EXPECT_EQ(stats.completed, subs.size());
  EXPECT_EQ(stats.answers_delivered,
            (references[0].answers.size() + references[1].answers.size() +
             references[2].answers.size()) *
                (subs.size() / 3));
}

// ---- Shutdown & misc ------------------------------------------------------

TEST(SchedulerShutdown, OpenTasksGetTerminalShutdownPush) {
  Workload w;
  QueueSink sink;
  Subscription sub;
  {
    SchedulerOptions so;
    so.num_workers = 0;  // never driven: the task stays open
    Scheduler scheduler(so);
    sub = scheduler.Submit(w.Spec(&sink));
    EXPECT_EQ(sub.admission(), AdmissionState::kAdmitted);
    EXPECT_FALSE(sub.finished());
  }  // destructor finishes the task with kShutdown
  EXPECT_EQ(sink.WaitTerminal(), SubscribeStatus::kShutdown);
}

TEST(SchedulerMisc, StatusNamesAndEmptyHandles) {
  EXPECT_STREQ(SubscribeStatusName(SubscribeStatus::kPending), "pending");
  EXPECT_STREQ(SubscribeStatusName(SubscribeStatus::kCompleted), "completed");
  EXPECT_STREQ(SubscribeStatusName(SubscribeStatus::kDeadlineExpired),
               "deadline_expired");
  EXPECT_STREQ(SubscribeStatusName(SubscribeStatus::kCancelled), "cancelled");
  EXPECT_STREQ(SubscribeStatusName(SubscribeStatus::kRejected), "rejected");
  EXPECT_STREQ(SubscribeStatusName(SubscribeStatus::kShutdown), "shutdown");

  Subscription empty;
  EXPECT_FALSE(empty);
  EXPECT_EQ(empty.status(), SubscribeStatus::kPending);
  EXPECT_EQ(empty.answers_delivered(), 0u);
  empty.Cancel();  // no-ops, no crash
  empty.AddCredits(5);
}

}  // namespace
}  // namespace banks
