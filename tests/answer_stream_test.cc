#include "search/answer_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "banks/engine.h"
#include "datasets/dblp_gen.h"
#include "prestige/pagerank.h"
#include "search/context_pool.h"
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

void ExpectSameAnswers(const std::vector<AnswerTree>& got,
                       const std::vector<AnswerTree>& want, size_t count) {
  ASSERT_GE(want.size(), count);
  ASSERT_GE(got.size(), count);
  for (size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(SameAnswer(got[i], want[i])) << "answer " << i << " differs";
  }
}

// ---- Differential sweep: algorithm × bound mode × copies × step budget ----

struct StreamCase {
  Algorithm algorithm;
  BoundMode bound;
  /// StreamOptions::step_budget of every stream the sweep opens: 0 runs
  /// each pull to its answer, 1 pauses after every single expansion.
  uint8_t step_budget;
  /// Copies of the query in flight while the test body runs: the body
  /// itself plus `shards - 1` drained copies on other threads, sharing
  /// the searcher, each of which must reproduce the reference. (The
  /// name is the instance suffix `ShardsN`, kept from when N was the
  /// intra-query shard count; parallelism is now across queries.)
  uint32_t shards;
};

std::string CaseName(const ::testing::TestParamInfo<StreamCase>& info) {
  const StreamCase& c = info.param;
  std::string name = AlgorithmName(c.algorithm);
  name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
  switch (c.bound) {
    case BoundMode::kTight: name += "Tight"; break;
    case BoundMode::kLoose: name += "Loose"; break;
    case BoundMode::kImmediate: name += "Immediate"; break;
  }
  name += "Shards" + std::to_string(c.shards);
  if (c.step_budget != 0) {
    name += "StepBudget" + std::to_string(c.step_budget);
  }
  return name;
}

std::vector<StreamCase> AllCases() {
  std::vector<StreamCase> cases;
  for (Algorithm a : {Algorithm::kBackwardMI, Algorithm::kBackwardSI,
                      Algorithm::kBidirectional}) {
    for (BoundMode b :
         {BoundMode::kTight, BoundMode::kLoose, BoundMode::kImmediate}) {
      for (auto [budget, shards] : {std::pair<uint8_t, uint32_t>{0, 1},
                                    {0, 4},
                                    {1, 1}}) {
        // Value-initialized, so the padding gtest prints in the test
        // name is zero rather than stack garbage.
        StreamCase c{};
        c.algorithm = a;
        c.bound = b;
        c.step_budget = budget;
        c.shards = shards;
        cases.push_back(c);
      }
    }
  }
  return cases;
}

class AnswerStreamSweep : public ::testing::TestWithParam<StreamCase> {
 protected:
  void SetUp() override {
    graph_ = MakeRandomGraph(220, 900, 7);
    prestige_ = UniformPrestige(graph_.num_nodes());
    origins_ = {{0, 1, 2}, {3, 4, 5}};
    options_.k = 6;
    options_.bound = GetParam().bound;
    searcher_ = CreateSearcher(GetParam().algorithm, graph_, prestige_,
                               options_);
    reference_ = searcher_->Search(origins_, &reference_context_);
    copies_ = std::make_unique<testing::BackgroundCopies>(
        GetParam().shards - 1, [this] {
          SearchContext context;
          SearchResult r = searcher_->Search(origins_, &context);
          if (r.answers.size() != reference_.answers.size()) return false;
          for (size_t i = 0; i < r.answers.size(); ++i) {
            if (!SameAnswer(r.answers[i], reference_.answers[i])) return false;
          }
          return r.metrics.nodes_explored == reference_.metrics.nodes_explored;
        });
  }

  void TearDown() override {
    if (copies_ != nullptr) {
      EXPECT_EQ(copies_->Join(), 0u) << "a concurrent copy diverged";
    }
  }

  /// Opens a stream under the case's step budget (unless the caller
  /// sets its own).
  AnswerStream Open(SearchContext* context,
                    StreamOptions stream_options = {}) {
    if (stream_options.step_budget == 0) {
      stream_options.step_budget = GetParam().step_budget;
    }
    return AnswerStream(searcher_.get(), origins_, stream_options, context);
  }

  /// Next answer, resuming through step-budget pauses; nullopt once the
  /// stream is exhausted.
  static std::optional<AnswerTree> Pull(AnswerStream& stream) {
    for (;;) {
      std::optional<AnswerTree> answer = stream.Next();
      if (answer.has_value() || !stream.hit_limit()) return answer;
    }
  }

  Graph graph_;
  std::vector<double> prestige_;
  std::vector<std::vector<NodeId>> origins_;
  SearchOptions options_;
  std::unique_ptr<Searcher> searcher_;
  SearchContext reference_context_;
  SearchResult reference_;
  std::unique_ptr<testing::BackgroundCopies> copies_;
};

INSTANTIATE_TEST_SUITE_P(AllModes, AnswerStreamSweep,
                         ::testing::ValuesIn(AllCases()), CaseName);

// Pulling every answer from a stream yields exactly the drained result:
// same answers, same order, same deterministic metrics at exhaustion.
TEST_P(AnswerStreamSweep, FullPullMatchesDrained) {
  SearchContext context;
  AnswerStream stream = Open(&context);
  std::vector<AnswerTree> pulled;
  while (auto answer = Pull(stream)) pulled.push_back(std::move(*answer));
  EXPECT_TRUE(stream.done());
  EXPECT_FALSE(stream.hit_limit());
  ASSERT_EQ(pulled.size(), reference_.answers.size());
  ExpectSameAnswers(pulled, reference_.answers, pulled.size());
  ExpectSameDeterministicMetrics(stream.metrics(), reference_.metrics);
}

// Prefix equivalence, the streaming contract: for every n, a stream
// pulled n times returns exactly the first n answers of the drained
// query. One warm context serves every prefix length — streams leave it
// reusable.
TEST_P(AnswerStreamSweep, EveryPrefixMatchesDrained) {
  SearchContext context;  // warm across all prefix lengths
  for (size_t n = 1; n <= reference_.answers.size(); ++n) {
    AnswerStream stream = Open(&context);
    std::vector<AnswerTree> pulled;
    for (size_t i = 0; i < n; ++i) {
      auto answer = Pull(stream);
      ASSERT_TRUE(answer.has_value()) << "prefix " << n << " pull " << i;
      pulled.push_back(std::move(*answer));
    }
    ExpectSameAnswers(pulled, reference_.answers, n);
  }
}

// A step budget of one node expansion per Next() forces the maximum
// number of pause/resume cycles; the reassembled sequence must still be
// the drained one.
TEST_P(AnswerStreamSweep, StepBudgetOneStillIdentical) {
  SearchContext context;
  StreamOptions stream_options;
  stream_options.step_budget = 1;
  AnswerStream stream = Open(&context, stream_options);
  std::vector<AnswerTree> pulled;
  size_t limit_pauses = 0;
  for (;;) {
    auto answer = stream.Next();
    if (answer.has_value()) {
      pulled.push_back(std::move(*answer));
      continue;
    }
    if (stream.hit_limit()) {
      ++limit_pauses;
      continue;  // paused without an answer: resume
    }
    break;  // exhausted
  }
  EXPECT_TRUE(stream.done());
  ASSERT_EQ(pulled.size(), reference_.answers.size());
  ExpectSameAnswers(pulled, reference_.answers, pulled.size());
  ExpectSameDeterministicMetrics(stream.metrics(), reference_.metrics);
  // The searches here take many expansions; the budget must have bitten.
  EXPECT_GT(limit_pauses, 0u);
}

// Drain after n pulls returns exactly the remaining answers, and the
// final metrics match the uninterrupted run.
TEST_P(AnswerStreamSweep, DrainAfterPullsReturnsRemainder) {
  if (reference_.answers.size() < 2) GTEST_SKIP();
  SearchContext context;
  AnswerStream stream = Open(&context);
  auto first = Pull(stream);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(SameAnswer(*first, reference_.answers[0]));
  SearchResult rest = stream.Drain();
  ASSERT_EQ(rest.answers.size(), reference_.answers.size() - 1);
  for (size_t i = 0; i < rest.answers.size(); ++i) {
    EXPECT_TRUE(SameAnswer(rest.answers[i], reference_.answers[i + 1]));
  }
  ExpectSameDeterministicMetrics(rest.metrics, reference_.metrics);
}

// Drain on a fresh stream is the classic run-to-completion query.
TEST_P(AnswerStreamSweep, FreshDrainIsClassicQuery) {
  SearchContext context;
  SearchResult drained = Open(&context).Drain();
  ASSERT_EQ(drained.answers.size(), reference_.answers.size());
  ExpectSameAnswers(drained.answers, reference_.answers,
                    drained.answers.size());
  ExpectSameDeterministicMetrics(drained.metrics, reference_.metrics);
}

// A stream abandoned mid-search (destroyed after n pulls) leaves its
// warm context fully reusable: the next drained query on it is
// identical to the reference.
TEST_P(AnswerStreamSweep, AbandonedStreamLeavesContextReusable) {
  SearchContext context;
  {
    AnswerStream stream = Open(&context);
    (void)Pull(stream);  // abandon after one pull
  }
  SearchResult warm = searcher_->Search(origins_, &context);
  ASSERT_EQ(warm.answers.size(), reference_.answers.size());
  ExpectSameAnswers(warm.answers, reference_.answers, warm.answers.size());
  ExpectSameDeterministicMetrics(warm.metrics, reference_.metrics);
}

// Cancel mid-stream: later Next() returns nothing, metrics stay
// readable, and the context is reusable for an identical warm query.
TEST_P(AnswerStreamSweep, CancelMidStreamLeavesContextReusable) {
  SearchContext context;
  AnswerStream stream = Open(&context);
  (void)Pull(stream);
  stream.Cancel();
  EXPECT_TRUE(stream.done());
  EXPECT_FALSE(stream.Next().has_value());
  EXPECT_EQ(stream.Drain().answers.size(), 0u);
  SearchResult warm = searcher_->Search(origins_, &context);
  ExpectSameAnswers(warm.answers, reference_.answers, warm.answers.size());
  ExpectSameDeterministicMetrics(warm.metrics, reference_.metrics);
}

// A deadline that expires before any expansion pauses the stream with
// zero work done — and the paused search stays resumable: clearing the
// effective deadline by pulling again eventually yields the full
// drained sequence.
TEST_P(AnswerStreamSweep, TinyDeadlinePausesThenResumes) {
  SearchContext context;
  StreamOptions stream_options;
  stream_options.deadline_seconds = 1e-12;
  AnswerStream stream = Open(&context, stream_options);
  auto first = stream.Next();
  EXPECT_FALSE(first.has_value());
  EXPECT_TRUE(stream.hit_limit());
  EXPECT_FALSE(stream.done());
  EXPECT_EQ(stream.metrics().nodes_explored, 0u);
  // Keep pulling: each call makes (at least) zero progress but the
  // deadline re-arms per call, and the wall clock always exceeds 1e-12s
  // — so pulls pause forever while the search stands still. Abandon and
  // verify the context is untouched-warm instead.
  stream.Cancel();
  SearchResult warm = searcher_->Search(origins_, &context);
  ASSERT_EQ(warm.answers.size(), reference_.answers.size());
  ExpectSameAnswers(warm.answers, reference_.answers, warm.answers.size());
}

// Empty or unmatched origin sets: the stream is born exhausted.
TEST_P(AnswerStreamSweep, UnmatchedKeywordMeansEmptyStream) {
  SearchContext context;
  AnswerStream stream(searcher_.get(), {{0, 1}, {}}, StreamOptions{},
                      &context);
  EXPECT_FALSE(stream.Next().has_value());
  EXPECT_TRUE(stream.done());
  EXPECT_FALSE(stream.hit_limit());
  EXPECT_EQ(stream.Drain().answers.size(), 0u);
}

// ---- Engine front door ----------------------------------------------------

class AnswerStreamEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DblpConfig config;
    config.num_authors = 200;
    config.num_papers = 400;
    config.num_conferences = 15;
    db_ = new Database(GenerateDblp(config));
    engine_ = new Engine(Engine::FromDatabase(*db_));
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete db_;
  }
  static Database* db_;
  static Engine* engine_;
};

Database* AnswerStreamEngineTest::db_ = nullptr;
Engine* AnswerStreamEngineTest::engine_ = nullptr;

TEST_F(AnswerStreamEngineTest, OpenQueryMatchesQuery) {
  std::vector<std::string> keywords = {"paper", "author"};
  SearchOptions options;
  options.k = 5;
  options.bound = BoundMode::kLoose;
  options.max_nodes_explored = 200'000;
  SearchResult drained =
      engine_->Query(keywords, Algorithm::kBidirectional, options);
  ASSERT_FALSE(drained.answers.empty());

  AnswerStream stream =
      engine_->OpenQuery(keywords, Algorithm::kBidirectional, options);
  std::vector<AnswerTree> pulled;
  while (auto answer = stream.Next()) pulled.push_back(std::move(*answer));
  EXPECT_EQ(stream.answers_pulled(), pulled.size());
  ASSERT_EQ(pulled.size(), drained.answers.size());
  ExpectSameAnswers(pulled, drained.answers, pulled.size());
  ExpectSameDeterministicMetrics(stream.metrics(), drained.metrics);
}

TEST_F(AnswerStreamEngineTest, OpenQueryResolvedWithWarmContext) {
  auto origins = engine_->Resolve({"paper", "conference"});
  SearchOptions options;
  options.k = 4;
  SearchResult drained =
      engine_->QueryResolved(origins, Algorithm::kBackwardMI, options);

  SearchContext context;
  for (int round = 0; round < 2; ++round) {  // round 2 runs warm
    AnswerStream stream = engine_->OpenQueryResolved(
        origins, Algorithm::kBackwardMI, options, StreamOptions{}, &context);
    std::vector<AnswerTree> pulled;
    while (auto answer = stream.Next()) pulled.push_back(std::move(*answer));
    ASSERT_EQ(pulled.size(), drained.answers.size());
    ExpectSameAnswers(pulled, drained.answers, pulled.size());
  }
}

// Concurrent streams over one shared pool: each thread leases a context
// per stream and lends it to the stream, every thread's pulled sequence
// must equal the sequential reference, and the pool must not grow past
// the thread count. This test is part of the TSan CI suite.
TEST_F(AnswerStreamEngineTest, ConcurrentStreamsOverOnePool) {
  const std::vector<std::vector<std::string>> queries = {
      {"paper", "author"}, {"writes", "conference"}, {"paper", "cites"}};
  SearchOptions options;
  options.k = 3;
  options.bound = BoundMode::kLoose;
  options.max_nodes_explored = 100'000;

  std::vector<SearchResult> reference;
  for (const auto& q : queries) {
    reference.push_back(engine_->Query(q, Algorithm::kBackwardSI, options));
  }

  SearchContextPool pool;
  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  std::vector<std::thread> threads;
  std::mutex failures_mu;
  std::vector<std::string> failures;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int round = 0; round < kRounds; ++round) {
        size_t qi = static_cast<size_t>(t + round) % queries.size();
        SearchContextPool::Lease context = pool.Acquire();
        AnswerStream stream =
            engine_->OpenQuery(queries[qi], Algorithm::kBackwardSI, options,
                               StreamOptions{}, context.get());
        std::vector<AnswerTree> pulled;
        while (auto answer = stream.Next()) {
          pulled.push_back(std::move(*answer));
        }
        bool ok = pulled.size() == reference[qi].answers.size();
        for (size_t i = 0; ok && i < pulled.size(); ++i) {
          ok = SameAnswer(pulled[i], reference[qi].answers[i]);
        }
        if (!ok) {
          std::lock_guard<std::mutex> lock(failures_mu);
          failures.push_back("thread " + std::to_string(t) + " round " +
                             std::to_string(round) + " diverged");
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_TRUE(failures.empty()) << failures.front();
  EXPECT_LE(pool.size(), static_cast<size_t>(kThreads));
  EXPECT_EQ(pool.available(), pool.size());
}

}  // namespace
}  // namespace banks
