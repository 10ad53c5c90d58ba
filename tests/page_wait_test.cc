// Serving-core integration of the paged storage layer: a quantum that
// misses the buffer pool reads the page on its worker (BufferPool::Pin)
// and goes on; no task parks. Answers must stay byte-identical to the
// in-RAM engine throughout, and the scheduler's page_waits counts the
// quanta that read pages.

#include <gtest/gtest.h>

#include <unistd.h>

#include <optional>
#include <string>
#include <vector>

#include "banks/engine.h"
#include "datasets/dblp_gen.h"
#include "search/answer.h"
#include "serve/queue_sink.h"
#include "serve/scheduler.h"
#include "storage/paged_store.h"

namespace banks {
namespace {

// Per-process paths: ctest runs tests from this binary concurrently, and
// a shared fixture file would be rewritten under a reader's pages.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

std::vector<AnswerTree> Drain(QueueSink* sink) {
  std::vector<AnswerTree> out;
  AnswerTree t;
  while (sink->TryPop(&t)) out.push_back(t);
  return out;
}

void ExpectSameAnswers(const std::vector<AnswerTree>& expect,
                       const std::vector<AnswerTree>& got) {
  ASSERT_EQ(expect.size(), got.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_TRUE(SameAnswer(expect[i], got[i])) << "answer " << i;
  }
}

/// One small DBLP graph, its in-RAM engine, and a paged file; each test
/// opens the file with the pool size it wants.
struct PageWaitEnv {
  PageWaitEnv()
      : ram(Engine::FromDatabase(GenerateDblp(Config()))),
        path(TempPath("page_wait.banks")) {
    PagedStoreOptions save;
    save.page_size = 4u << 10;
    // Page every run (no resident short-run inlining): these tests are
    // about quanta that read pages, so all adjacency must go through
    // the pool.
    save.inline_run_bytes = 0;
    ok = PagedStore::Save(ram.data(), ram.prestige(), path, save);
    const auto terms = ram.index().SortedTerms();
    keywords = {terms[terms.size() / 10].first, terms[terms.size() / 2].first};
  }

  static DblpConfig Config() {
    DblpConfig cfg;
    cfg.num_authors = 120;
    cfg.num_papers = 250;
    cfg.num_conferences = 10;
    cfg.seed = 11;
    return cfg;
  }

  /// Paged engine whose pool holds only a couple of pages, so nearly
  /// every expansion step faults.
  Engine OpenTiny() const {
    PagedOpenOptions open;
    open.pool_bytes = 8u << 10;
    std::optional<PagedData> pd = PagedStore::Open(path, open);
    EXPECT_TRUE(pd.has_value());
    return Engine(std::move(pd->data));
  }

  Engine ram;
  std::string path;
  bool ok = false;
  std::vector<std::string> keywords;
};

const PageWaitEnv& Env() {
  static PageWaitEnv* env = new PageWaitEnv();
  return *env;
}

TEST(PageWait, WorkerBackedPagedServingMatchesInRam) {
  ASSERT_TRUE(Env().ok);
  Engine paged = Env().OpenTiny();
  SchedulerOptions sched_options;
  sched_options.num_workers = 2;
  sched_options.quantum_steps = 3;  // many quanta → many fault points
  Scheduler scheduler(sched_options);
  SearchOptions options;
  options.k = 8;

  SearchResult expect =
      Env().ram.Query(Env().keywords, Algorithm::kBidirectional, options);

  QueueSink sink;
  SubscribeOptions subscribe;
  subscribe.scheduler = &scheduler;
  Subscription sub = paged.Subscribe(Env().keywords, Algorithm::kBidirectional,
                                     &sink, options, subscribe);
  EXPECT_EQ(sub.Wait(), SubscribeStatus::kCompleted);
  ExpectSameAnswers(expect.answers, Drain(&sink));

  Scheduler::Stats stats = scheduler.Snapshot();
  EXPECT_GT(stats.page_waits, 0u) << "no quantum read a page";
  EXPECT_EQ(stats.page_waiting, 0u);  // no task ever parks
  EXPECT_GT(sink.final_metrics().page_misses, 0u);
}

TEST(PageWait, ManualDrivePagedServingMatchesInRam) {
  ASSERT_TRUE(Env().ok);
  Engine paged = Env().OpenTiny();
  SchedulerOptions sched_options;
  sched_options.num_workers = 0;  // manual drive
  sched_options.quantum_steps = 3;
  Scheduler scheduler(sched_options);
  SearchOptions options;
  options.k = 8;

  SearchResult expect =
      Env().ram.Query(Env().keywords, Algorithm::kBackwardMI, options);

  QueueSink sink;
  SubscribeOptions subscribe;
  subscribe.scheduler = &scheduler;
  Subscription sub = paged.Subscribe(Env().keywords, Algorithm::kBackwardMI,
                                     &sink, options, subscribe);
  // Every call has work until the task finishes: a quantum that misses
  // the pool reads the page itself, so the task never waits elsewhere.
  while (!sub.finished()) ASSERT_TRUE(scheduler.DriveOne());
  EXPECT_EQ(sub.Wait(), SubscribeStatus::kCompleted);
  ExpectSameAnswers(expect.answers, Drain(&sink));
  Scheduler::Stats stats = scheduler.Snapshot();
  EXPECT_GT(stats.page_waits, 0u);
  EXPECT_GT(sink.final_metrics().page_misses, 0u);
}

TEST(PageWait, AllAlgorithmsMatchInRamUnderPaging) {
  ASSERT_TRUE(Env().ok);
  Engine paged = Env().OpenTiny();
  SchedulerOptions sched_options;
  sched_options.num_workers = 2;
  sched_options.quantum_steps = 5;
  Scheduler scheduler(sched_options);
  SearchOptions options;
  options.k = 6;
  for (Algorithm algorithm : {Algorithm::kBackwardMI, Algorithm::kBackwardSI,
                              Algorithm::kBidirectional}) {
    SearchResult expect = Env().ram.Query(Env().keywords, algorithm, options);
    QueueSink sink;
    SubscribeOptions subscribe;
    subscribe.scheduler = &scheduler;
    Subscription sub =
        paged.Subscribe(Env().keywords, algorithm, &sink, options, subscribe);
    ASSERT_EQ(sub.Wait(), SubscribeStatus::kCompleted);
    ExpectSameAnswers(expect.answers, Drain(&sink));
    // Deterministic work counters survive the serving + paging detour.
    SearchMetrics m = sink.final_metrics();
    EXPECT_EQ(m.nodes_explored, expect.metrics.nodes_explored);
    EXPECT_EQ(m.edges_relaxed, expect.metrics.edges_relaxed);
    EXPECT_EQ(m.answers_output, expect.metrics.answers_output);
  }
}

TEST(PageWait, ConcurrentPagedSubscriptionsAllComplete) {
  ASSERT_TRUE(Env().ok);
  Engine paged = Env().OpenTiny();
  SchedulerOptions sched_options;
  sched_options.num_workers = 4;
  sched_options.quantum_steps = 3;
  Scheduler scheduler(sched_options);
  SearchOptions options;
  options.k = 5;
  SearchResult expect =
      Env().ram.Query(Env().keywords, Algorithm::kBidirectional, options);

  constexpr size_t kSubs = 6;
  std::vector<QueueSink> sinks(kSubs);
  std::vector<Subscription> subs;
  SubscribeOptions subscribe;
  subscribe.scheduler = &scheduler;
  for (size_t i = 0; i < kSubs; ++i) {
    subs.push_back(paged.Subscribe(Env().keywords, Algorithm::kBidirectional,
                                   &sinks[i], options, subscribe));
  }
  uint64_t page_misses = 0;
  for (size_t i = 0; i < kSubs; ++i) {
    ASSERT_EQ(subs[i].Wait(), SubscribeStatus::kCompleted) << "sub " << i;
    ExpectSameAnswers(expect.answers, Drain(&sinks[i]));
    page_misses += sinks[i].final_metrics().page_misses;
  }
  // All subscriptions contended for the same two-page pool, so quanta
  // must have read pages across the set.
  EXPECT_GT(scheduler.Snapshot().page_waits, 0u);
  EXPECT_GT(page_misses, 0u);
}

TEST(PageWait, DeadlineExpiryStillFiresOnPagedTasks) {
  ASSERT_TRUE(Env().ok);
  Engine paged = Env().OpenTiny();
  SchedulerOptions sched_options;
  sched_options.num_workers = 2;
  sched_options.quantum_steps = 1;
  Scheduler scheduler(sched_options);
  SearchOptions options;
  options.k = 10;
  QueueSink sink;
  SubscribeOptions subscribe;
  subscribe.scheduler = &scheduler;
  subscribe.deadline_seconds = 1e-6;  // unmeetable under page reads
  Subscription sub = paged.Subscribe(Env().keywords, Algorithm::kBidirectional,
                                     &sink, options, subscribe);
  SubscribeStatus status = sub.Wait();
  // The scheduler's deadline must terminate the task even while its
  // quanta read pages.
  EXPECT_EQ(status, SubscribeStatus::kDeadlineExpired);
  EXPECT_EQ(scheduler.Snapshot().deadline_expired, 1u);
}

TEST(PageWait, CancelWhileParkedTerminatesCleanly) {
  ASSERT_TRUE(Env().ok);
  Engine paged = Env().OpenTiny();
  SchedulerOptions sched_options;
  sched_options.num_workers = 0;  // manual: we control every quantum
  sched_options.quantum_steps = 1;
  Scheduler scheduler(sched_options);
  SearchOptions options;
  options.k = 10;
  QueueSink sink;
  SubscribeOptions subscribe;
  subscribe.scheduler = &scheduler;
  Subscription sub = paged.Subscribe(Env().keywords, Algorithm::kBidirectional,
                                     &sink, options, subscribe);
  // Run a few quanta so the task acquires its context and reads pages.
  for (int i = 0; i < 4; ++i) scheduler.DriveOne();
  sub.Cancel();
  while (!sub.finished()) ASSERT_TRUE(scheduler.DriveOne());
  SubscribeStatus status = sub.Wait();
  EXPECT_TRUE(status == SubscribeStatus::kCancelled ||
              status == SubscribeStatus::kCompleted)
      << SubscribeStatusName(status);
  EXPECT_EQ(scheduler.Snapshot().page_waiting, 0u);
}

}  // namespace
}  // namespace banks
