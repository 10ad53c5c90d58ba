#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "banks/engine.h"
#include "datasets/dblp_gen.h"
#include "serve/queue_sink.h"

namespace banks {
namespace {

/// Counter-level metric equality. Wall-clock fields (elapsed_seconds and
/// the per-answer time vectors) legitimately differ between runs and are
/// not compared.
void ExpectSameCounters(const SearchMetrics& a, const SearchMetrics& b) {
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.nodes_touched, b.nodes_touched);
  EXPECT_EQ(a.edges_relaxed, b.edges_relaxed);
  EXPECT_EQ(a.propagation_steps, b.propagation_steps);
  EXPECT_EQ(a.answers_generated, b.answers_generated);
  EXPECT_EQ(a.answers_output, b.answers_output);
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted);
}

void ExpectSameResult(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.answers.size(), b.answers.size());
  for (size_t i = 0; i < a.answers.size(); ++i) {
    EXPECT_TRUE(SameAnswer(a.answers[i], b.answers[i])) << "answer " << i;
  }
  ExpectSameCounters(a.metrics, b.metrics);
}

class QueryBatchTest : public ::testing::Test {
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

  /// Batch of keyword queries built from author surnames: several
  /// distinct 2-keyword sets, each duplicated once (interleaved), so the
  /// batch exercises the origin cache on a realistic stream.
  static std::vector<BatchQuerySpec> MakeSpecs() {
    const Table& author = *db_->FindTable("author");
    // Distinct surnames only, so every spec pair is a distinct keyword
    // set and the duplicate count below is exact.
    std::vector<std::string> surnames;
    for (RowId r = 0;
         r < static_cast<RowId>(author.num_rows()) && surnames.size() < 12;
         ++r) {
      std::string s =
          engine_->index().tokenizer().Tokenize(author.RowText(r)).back();
      if (std::find(surnames.begin(), surnames.end(), s) == surnames.end()) {
        surnames.push_back(std::move(s));
      }
    }
    std::vector<BatchQuerySpec> specs;
    for (size_t i = 0; i + 1 < surnames.size(); i += 2) {
      BatchQuerySpec spec;
      spec.keywords = {surnames[i], surnames[i + 1]};
      specs.push_back(spec);
      specs.push_back(spec);  // duplicate keyword set
    }
    return specs;
  }

  static Database* db_;
  static Engine* engine_;
};

SchedulerOptions Workers(size_t n) {
  SchedulerOptions so;
  so.num_workers = n;
  return so;
}

Database* QueryBatchTest::db_ = nullptr;
Engine* QueryBatchTest::engine_ = nullptr;

TEST_F(QueryBatchTest, MatchesSequentialForAllAlgorithmsAndThreadCounts) {
  std::vector<BatchQuerySpec> specs = MakeSpecs();
  ASSERT_FALSE(specs.empty());
  SearchOptions options;
  options.k = 5;
  for (Algorithm algorithm :
       {Algorithm::kBidirectional, Algorithm::kBackwardSI,
        Algorithm::kBackwardMI}) {
    // Sequential reference: independent Query calls (fresh contexts).
    std::vector<SearchResult> reference;
    reference.reserve(specs.size());
    for (const BatchQuerySpec& s : specs) {
      reference.push_back(engine_->Query(s.keywords, algorithm, options));
    }
    for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      Scheduler scheduler(Workers(workers));
      BatchOptions bopt;
      bopt.scheduler = &scheduler;
      BatchResult batch =
          engine_->QueryBatch(specs, algorithm, options, bopt);
      ASSERT_EQ(batch.results.size(), specs.size())
          << AlgorithmName(algorithm) << " workers=" << workers;
      for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(std::string(AlgorithmName(algorithm)) + " workers=" +
                     std::to_string(workers) + " query=" + std::to_string(i));
        ExpectSameResult(batch.results[i], reference[i]);
      }
      // Half the specs are duplicates and must have hit the cache.
      EXPECT_EQ(batch.origin_cache_hits, specs.size() / 2);
      // Aggregated counters = sum over the per-query metrics.
      SearchMetrics sum;
      for (const SearchResult& r : reference) {
        sum.nodes_explored += r.metrics.nodes_explored;
        sum.nodes_touched += r.metrics.nodes_touched;
        sum.edges_relaxed += r.metrics.edges_relaxed;
        sum.propagation_steps += r.metrics.propagation_steps;
        sum.answers_generated += r.metrics.answers_generated;
        sum.answers_output += r.metrics.answers_output;
        sum.budget_exhausted |= r.metrics.budget_exhausted;
      }
      ExpectSameCounters(batch.total, sum);
    }
  }
}

TEST_F(QueryBatchTest, PreResolvedOriginsSkipKeywordResolution) {
  std::vector<BatchQuerySpec> keyword_specs = MakeSpecs();
  SearchOptions options;
  options.k = 3;
  // The same batch with origins resolved up front must produce the same
  // results; keywords are ignored when origins are present.
  std::vector<BatchQuerySpec> resolved_specs;
  for (const BatchQuerySpec& s : keyword_specs) {
    BatchQuerySpec spec;
    spec.origins = engine_->Resolve(s.keywords);
    spec.keywords = {"ignored", "keywords"};
    resolved_specs.push_back(std::move(spec));
  }
  BatchResult from_keywords =
      engine_->QueryBatch(keyword_specs, Algorithm::kBackwardSI, options);
  BatchResult from_origins =
      engine_->QueryBatch(resolved_specs, Algorithm::kBackwardSI, options);
  ASSERT_EQ(from_keywords.results.size(), from_origins.results.size());
  for (size_t i = 0; i < from_keywords.results.size(); ++i) {
    ExpectSameResult(from_keywords.results[i], from_origins.results[i]);
  }
  // Pre-resolved specs never consult the cache.
  EXPECT_EQ(from_origins.origin_cache_hits, 0u);
}

TEST_F(QueryBatchTest, EmptyBatchAndUnmatchedKeywords) {
  BatchResult empty = engine_->QueryBatch({}, Algorithm::kBidirectional);
  EXPECT_TRUE(empty.results.empty());
  EXPECT_EQ(empty.total.nodes_explored, 0u);

  // A keyword matching nothing yields an empty result (AND semantics),
  // batched exactly like Query does.
  std::vector<BatchQuerySpec> specs(2);
  specs[0].keywords = {"qqqqzzzz", "author"};
  specs[1].keywords = {"author"};
  Scheduler scheduler(Workers(4));  // more workers than queries is fine
  BatchOptions bopt;
  bopt.scheduler = &scheduler;
  BatchResult batch =
      engine_->QueryBatch(specs, Algorithm::kBackwardMI, {}, bopt);
  EXPECT_TRUE(batch.results[0].answers.empty());
  EXPECT_FALSE(batch.results[1].answers.empty());
}

TEST_F(QueryBatchTest, SharedPoolWarmAcrossBatches) {
  std::vector<BatchQuerySpec> specs = MakeSpecs();
  SearchOptions options;
  options.k = 5;
  Scheduler scheduler(Workers(2));
  SearchContextPool& pool = scheduler.context_pool();
  BatchOptions bopt;
  bopt.scheduler = &scheduler;
  BatchResult first =
      engine_->QueryBatch(specs, Algorithm::kBidirectional, options, bopt);
  // The batch keeps at most num_workers() tasks open, so at most that
  // many contexts were ever leased at once.
  size_t contexts_after_first = pool.size();
  EXPECT_GE(contexts_after_first, 1u);
  EXPECT_LE(contexts_after_first, 2u);
  EXPECT_EQ(pool.available(), pool.size());  // all leases returned
  BatchResult second =
      engine_->QueryBatch(specs, Algorithm::kBidirectional, options, bopt);
  // Warm reuse: the second batch created no new contexts and returned
  // identical results.
  EXPECT_EQ(pool.size(), contexts_after_first);
  ASSERT_EQ(first.results.size(), second.results.size());
  for (size_t i = 0; i < first.results.size(); ++i) {
    ExpectSameResult(first.results[i], second.results[i]);
  }
}

TEST_F(QueryBatchTest, OnAnswerStreamsEveryAnswerInReleaseOrder) {
  std::vector<BatchQuerySpec> specs = MakeSpecs();
  SearchOptions options;
  options.k = 5;
  for (size_t workers : {size_t{1}, size_t{4}}) {
    Scheduler scheduler(Workers(workers));
    std::mutex mu;
    std::vector<std::vector<AnswerTree>> streamed(specs.size());
    BatchOptions bopt;
    bopt.scheduler = &scheduler;
    bopt.on_answer = [&](size_t query_index, const AnswerTree& answer) {
      std::lock_guard<std::mutex> lock(mu);
      streamed[query_index].push_back(answer);  // copy: ref dies after call
    };
    BatchResult batch =
        engine_->QueryBatch(specs, Algorithm::kBidirectional, options, bopt);
    // Per query, the streamed sequence is exactly the final result — the
    // callback fires in release order, which IS output order.
    for (size_t i = 0; i < specs.size(); ++i) {
      SCOPED_TRACE("workers=" + std::to_string(workers) + " query=" +
                   std::to_string(i));
      ASSERT_EQ(streamed[i].size(), batch.results[i].answers.size());
      for (size_t j = 0; j < streamed[i].size(); ++j) {
        EXPECT_TRUE(SameAnswer(streamed[i][j], batch.results[i].answers[j]));
      }
    }
    // Streaming must not change the results themselves.
    std::vector<SearchResult> reference;
    for (const BatchQuerySpec& s : specs) {
      reference.push_back(
          engine_->Query(s.keywords, Algorithm::kBidirectional, options));
    }
    for (size_t i = 0; i < specs.size(); ++i) {
      ExpectSameResult(batch.results[i], reference[i]);
    }
  }
}

TEST_F(QueryBatchTest, AdmissionLimitsNeverFailTheBatch) {
  // One run slot and no queue: most submissions are rejected. Two
  // batches compete for the slot, so a batch sees rejections both with
  // its own task open (wait and retry) and with none open (run inline).
  // Every result must still equal the sequential one.
  std::vector<BatchQuerySpec> specs = MakeSpecs();
  SearchOptions options;
  options.k = 5;
  std::vector<SearchResult> reference;
  for (const BatchQuerySpec& s : specs) {
    reference.push_back(
        engine_->Query(s.keywords, Algorithm::kBackwardSI, options));
  }
  SchedulerOptions so = Workers(2);
  so.max_running = 1;
  so.max_queued = 0;
  Scheduler scheduler(so);
  BatchOptions bopt;
  bopt.scheduler = &scheduler;
  std::vector<BatchResult> batches(2);
  std::vector<std::thread> threads;
  for (BatchResult& out : batches) {
    threads.emplace_back([&] {
      out = engine_->QueryBatch(specs, Algorithm::kBackwardSI, options, bopt);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const BatchResult& batch : batches) {
    ASSERT_EQ(batch.results.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      SCOPED_TRACE("query=" + std::to_string(i));
      ExpectSameResult(batch.results[i], reference[i]);
    }
  }
  EXPECT_GT(scheduler.Snapshot().rejected, 0u);
  EXPECT_EQ(scheduler.context_pool().leased(), 0u);
}

TEST_F(QueryBatchTest, RejectedWithNoTaskOpenRunsInline) {
  // Another subscriber holds the only run slot for the whole batch: an
  // exhaustive MI search over the type-name keywords, which runs for
  // seconds. Every batch submission is rejected with none of the
  // batch's tasks open, so every query runs inline on this thread.
  SchedulerOptions so = Workers(1);
  so.max_running = 1;
  so.max_queued = 0;
  Scheduler scheduler(so);
  QueueSink holder_sink;
  SubscribeOptions subscribe;
  subscribe.scheduler = &scheduler;
  SearchOptions holder_options;
  holder_options.k = 4;
  Subscription holder = engine_->Subscribe(
      {"paper", "conference"}, Algorithm::kBackwardMI, &holder_sink,
      holder_options, subscribe);
  ASSERT_EQ(holder.admission(), AdmissionState::kAdmitted);

  std::vector<BatchQuerySpec> specs = MakeSpecs();
  SearchOptions options;
  options.k = 5;
  std::mutex mu;
  std::vector<size_t> streamed(specs.size(), 0);
  BatchOptions bopt;
  bopt.scheduler = &scheduler;
  bopt.on_answer = [&](size_t query_index, const AnswerTree&) {
    std::lock_guard<std::mutex> lock(mu);
    ++streamed[query_index];
  };
  BatchResult batch =
      engine_->QueryBatch(specs, Algorithm::kBackwardSI, options, bopt);
  EXPECT_FALSE(holder.finished()) << "the holder let go of the slot early";
  EXPECT_GE(scheduler.Snapshot().rejected, specs.size());
  ASSERT_EQ(batch.results.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("query=" + std::to_string(i));
    ExpectSameResult(batch.results[i],
                     engine_->Query(specs[i].keywords, Algorithm::kBackwardSI,
                                    options));
    EXPECT_EQ(streamed[i], batch.results[i].answers.size());
  }
  holder.Cancel();
  EXPECT_EQ(holder.Wait(), SubscribeStatus::kCancelled);
}

TEST_F(QueryBatchTest, ManualDriveSchedulerIsRejected) {
  // Nothing would run the tasks the calling thread waits on.
  Scheduler scheduler(Workers(0));
  BatchOptions bopt;
  bopt.scheduler = &scheduler;
  EXPECT_THROW(engine_->QueryBatch(MakeSpecs(), Algorithm::kBidirectional, {},
                                   bopt),
               std::invalid_argument);
}

}  // namespace
}  // namespace banks
