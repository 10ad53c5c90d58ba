// Differential & concurrency harness of parallel searches.
//
// The contract under test: running a query alongside copies of itself
// on other threads must never change what it computes — answers (every
// deterministic field, via SameAnswer) and deterministic metrics are
// byte-identical to a lone run on a fresh context, for all three
// algorithms, at any number of concurrent copies, on any graph, warm or
// cold. The searchers are sequential; parallelism is across queries,
// each on its own SearchContext over one shared, immutable graph. The
// randomized differential sweep covers graphs × seeds × bounds × k; the
// stress tests hammer one query per thread from a shared
// SearchContextPool and pin that, once warm, the pool stops growing.
//
// Suite and test names keep the `Sharded`/`Shards` spelling of the
// intra-query sharding these tests used to check: a shard count there
// is a count of concurrent copies here.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "banks/engine.h"
#include "datasets/dblp_gen.h"
#include "prestige/pagerank.h"
#include "search/answer_stream.h"
#include "search/context_pool.h"
#include "serve/queue_sink.h"
#include "test_util.h"
#include "util/rng.h"

namespace banks {
namespace {

using testing::RunConcurrently;

constexpr size_t kCopyCounts[] = {2, 4, 8};

/// Deterministic-field equality of two runs: every answer SameAnswer and
/// every order-determined metric equal. Timing values are excluded, but
/// the *lengths* of the timing vectors are not — they count release
/// events.
void ExpectSameResults(const SearchResult& a, const SearchResult& b,
                       const std::string& what) {
  ASSERT_EQ(a.answers.size(), b.answers.size()) << what;
  for (size_t i = 0; i < a.answers.size(); ++i) {
    EXPECT_TRUE(SameAnswer(a.answers[i], b.answers[i]))
        << what << ": answer " << i << " differs";
  }
  EXPECT_EQ(a.metrics.nodes_explored, b.metrics.nodes_explored) << what;
  EXPECT_EQ(a.metrics.nodes_touched, b.metrics.nodes_touched) << what;
  EXPECT_EQ(a.metrics.edges_relaxed, b.metrics.edges_relaxed) << what;
  EXPECT_EQ(a.metrics.propagation_steps, b.metrics.propagation_steps) << what;
  EXPECT_EQ(a.metrics.answers_generated, b.metrics.answers_generated) << what;
  EXPECT_EQ(a.metrics.answers_output, b.metrics.answers_output) << what;
  EXPECT_EQ(a.metrics.budget_exhausted, b.metrics.budget_exhausted) << what;
  EXPECT_EQ(a.metrics.generated_times.size(), b.metrics.generated_times.size())
      << what;
  EXPECT_EQ(a.metrics.output_times.size(), b.metrics.output_times.size())
      << what;
}

/// Runs `copies` copies of the query at once, one thread each, every
/// copy on a context leased from `pool`, through one shared searcher.
std::vector<SearchResult> RunCopies(const Searcher& searcher,
                                    const std::vector<std::vector<NodeId>>&
                                        origins,
                                    size_t copies, SearchContextPool* pool) {
  std::vector<SearchResult> results(copies);
  RunConcurrently(copies, [&](size_t i) {
    SearchContextPool::Lease context = pool->Acquire();
    results[i] = searcher.Search(origins, context.get());
  });
  return results;
}

/// Runs `origins` on `graph` alone on a fresh context, then at every
/// copy count in kCopyCounts (sharing one context pool), and asserts all
/// runs identical.
void ExpectCopyInvariant(Algorithm algorithm, const Graph& graph,
                         const std::vector<std::vector<NodeId>>& origins,
                         const SearchOptions& options,
                         const std::string& what) {
  SearchResult reference = testing::RunSearch(algorithm, graph, origins,
                                              options);
  std::vector<double> prestige;  // empty = uniform; outlives the searcher
  auto searcher = CreateSearcher(algorithm, graph, prestige, options);
  SearchContextPool pool;
  for (size_t copies : kCopyCounts) {
    std::vector<SearchResult> results =
        RunCopies(*searcher, origins, copies, &pool);
    for (size_t i = 0; i < results.size(); ++i) {
      ExpectSameResults(reference, results[i],
                        what + " copies=" + std::to_string(copies) +
                            " copy " + std::to_string(i));
    }
  }
}

struct ShardCase {
  Algorithm algorithm;
  uint64_t seed;
};

class ShardedSearch : public ::testing::TestWithParam<ShardCase> {
 protected:
  void SetUp() override {
    graph_ = testing::MakeRandomGraph(260, 1040, GetParam().seed);
    // Derive deterministic origin sets from the seed (same scheme as the
    // property sweep, different multiplier so the cases differ).
    Rng rng(GetParam().seed * 6151 + 29);
    size_t num_keywords = 2 + rng.Below(3);
    origins_.resize(num_keywords);
    for (auto& s : origins_) {
      size_t count = 1 + rng.Below(10);
      for (size_t i = 0; i < count; ++i) {
        s.push_back(static_cast<NodeId>(rng.Below(graph_.num_nodes())));
      }
    }
  }

  Graph graph_;
  std::vector<std::vector<NodeId>> origins_;
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShardedSearch,
    ::testing::ValuesIn([] {
      std::vector<ShardCase> cases;
      for (Algorithm a : {Algorithm::kBackwardMI, Algorithm::kBackwardSI,
                          Algorithm::kBidirectional}) {
        for (uint64_t seed = 1; seed <= 5; ++seed) {
          cases.push_back(ShardCase{a, seed});
        }
      }
      return cases;
    }()),
    [](const auto& info) {
      std::string name = AlgorithmName(info.param.algorithm);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name + "_seed" + std::to_string(info.param.seed);
    });

TEST_P(ShardedSearch, TightBoundDifferential) {
  SearchOptions options;
  options.bound = BoundMode::kTight;
  ExpectCopyInvariant(GetParam().algorithm, graph_, origins_, options,
                      "tight");
}

TEST_P(ShardedSearch, LooseBoundDifferential) {
  SearchOptions options;
  options.bound = BoundMode::kLoose;
  ExpectCopyInvariant(GetParam().algorithm, graph_, origins_, options,
                      "loose");
}

TEST_P(ShardedSearch, ImmediateBoundSmallK) {
  SearchOptions options;
  options.bound = BoundMode::kImmediate;
  options.k = 3;
  ExpectCopyInvariant(GetParam().algorithm, graph_, origins_, options,
                      "immediate k=3");
}

TEST_P(ShardedSearch, ExplorationBudgetDifferential) {
  // Budgets make the result depend on the *exact* expansion prefix, so
  // any state leaking between concurrent copies would show immediately.
  SearchOptions options;
  options.bound = BoundMode::kLoose;
  options.max_nodes_explored = 150;
  ExpectCopyInvariant(GetParam().algorithm, graph_, origins_, options,
                      "budget");
}

class ShardedSearchEdgeCases
    : public ::testing::TestWithParam<Algorithm> {};

INSTANTIATE_TEST_SUITE_P(
    Algorithms, ShardedSearchEdgeCases,
    ::testing::Values(Algorithm::kBackwardMI, Algorithm::kBackwardSI,
                      Algorithm::kBidirectional),
    [](const auto& info) {
      std::string name = AlgorithmName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST_P(ShardedSearchEdgeCases, Fig4QueryAllShardCounts) {
  testing::Fig4Graph fig = testing::MakeFig4Graph();
  std::vector<std::vector<NodeId>> origins = {
      fig.database_papers, {fig.james}, {fig.john}};
  SearchOptions options;
  options.bound = BoundMode::kTight;
  ExpectCopyInvariant(GetParam(), fig.graph, origins, options, "fig4");
}

TEST_P(ShardedSearchEdgeCases, UnmatchedKeywordIsEmptyAtAnyShardCount) {
  Graph graph = testing::MakePathGraph(12);
  std::vector<std::vector<NodeId>> origins = {{0, 3}, {}};
  std::vector<double> prestige;
  auto searcher = CreateSearcher(GetParam(), graph, prestige, {});
  SearchContextPool pool;
  for (size_t copies : {1u, 2u, 8u}) {
    for (const SearchResult& r : RunCopies(*searcher, origins, copies, &pool)) {
      EXPECT_TRUE(r.answers.empty()) << copies;
      EXPECT_EQ(r.metrics.nodes_explored, 0u) << copies;
    }
  }
}

TEST_P(ShardedSearchEdgeCases, EmptyQueryIsEmptyAtAnyShardCount) {
  Graph graph = testing::MakePathGraph(6);
  std::vector<double> prestige;
  auto searcher = CreateSearcher(GetParam(), graph, prestige, {});
  SearchContextPool pool;
  for (size_t copies : {1u, 4u}) {
    for (const SearchResult& r : RunCopies(*searcher, {}, copies, &pool)) {
      EXPECT_TRUE(r.answers.empty()) << copies;
    }
  }
}

TEST_P(ShardedSearchEdgeCases, SingleOriginSingleKeyword) {
  Graph graph = testing::MakeStarGraph(24);
  SearchOptions options;
  ExpectCopyInvariant(GetParam(), graph, {{5}}, options, "single-origin");
}

TEST_P(ShardedSearchEdgeCases, MoreShardsThanNodes) {
  // More copies in flight than the graph has nodes.
  Graph graph = testing::MakePathGraph(3);
  std::vector<std::vector<NodeId>> origins = {{0}, {2}};
  SearchOptions options;
  SearchResult reference =
      testing::RunSearch(GetParam(), graph, origins, options);
  EXPECT_FALSE(reference.answers.empty());
  std::vector<double> prestige;
  auto searcher = CreateSearcher(GetParam(), graph, prestige, options);
  SearchContextPool pool;
  std::vector<SearchResult> results = RunCopies(*searcher, origins, 16, &pool);
  for (size_t i = 0; i < results.size(); ++i) {
    ExpectSameResults(reference, results[i],
                      "copies>nodes copy " + std::to_string(i));
  }
}

TEST_P(ShardedSearchEdgeCases, WarmContextAlternatingShardCounts) {
  // Warm contexts serve rounds of 4, 1, 8 and 2 concurrent copies back to
  // back — each round's threads reuse contexts the previous rounds left
  // warm — and every run must match a fresh-context lone run.
  Graph graph = testing::MakeRandomGraph(180, 720, 11);
  std::vector<std::vector<NodeId>> origins = {{3, 17, 40}, {9, 88}};
  SearchOptions options;
  options.bound = BoundMode::kTight;
  std::vector<double> prestige;  // empty = uniform; outlives the searcher
  auto searcher = CreateSearcher(GetParam(), graph, prestige, options);
  SearchContext fresh;
  SearchResult reference = searcher->Search(origins, &fresh);

  std::vector<SearchContext> warm(8);
  for (size_t copies : {4u, 1u, 8u, 2u}) {
    std::vector<SearchResult> results(copies);
    RunConcurrently(copies, [&](size_t i) {
      results[i] = searcher->Search(origins, &warm[i]);
    });
    for (size_t i = 0; i < copies; ++i) {
      ExpectSameResults(reference, results[i],
                        "warm alternating copies=" + std::to_string(copies) +
                            " copy " + std::to_string(i));
    }
  }
}

// ---- Concurrency stress ---------------------------------------------------
// One query per thread, every round leasing its context from one shared
// SearchContextPool. After a warm-up round the pool must stop growing
// (leases are recycled, so steady-state serving is allocation-free), and
// every thread's every round must reproduce the lone reference exactly.

void StressSharedPool(Algorithm algorithm, size_t threads, size_t rounds) {
  Graph graph = testing::MakeRandomGraph(300, 1500, 23);
  std::vector<std::vector<NodeId>> origins = {
      {1, 30, 61, 92, 123}, {7, 77, 147}, {15, 155, 255}};
  SearchOptions options;
  options.bound = BoundMode::kTight;  // exercises the NRA bound scan
  options.k = 20;

  std::vector<double> prestige;
  auto searcher = CreateSearcher(algorithm, graph, prestige, options);
  SearchResult reference = searcher->Search(origins);

  SearchContextPool pool;
  std::atomic<size_t> mismatches{0};
  // In the warm-up round every thread holds its lease until all threads
  // hold one, so the pool reaches its high-water mark: one context per
  // thread.
  auto run_round = [&](bool warm_up) {
    std::atomic<size_t> leased{0};
    RunConcurrently(threads, [&](size_t) {
      SearchContextPool::Lease context = pool.Acquire();
      leased.fetch_add(1);
      while (warm_up && leased.load() < threads) std::this_thread::yield();
      SearchResult r = searcher->Search(origins, context.get());
      bool same = r.answers.size() == reference.answers.size();
      for (size_t i = 0; same && i < r.answers.size(); ++i) {
        same = SameAnswer(r.answers[i], reference.answers[i]);
      }
      if (!same ||
          r.metrics.nodes_explored != reference.metrics.nodes_explored) {
        mismatches.fetch_add(1);
      }
    });
  };

  run_round(/*warm_up=*/true);
  EXPECT_EQ(pool.size(), threads);
  // Contexts are only leased while a query runs, so between rounds
  // everything is back in the pool.
  EXPECT_EQ(pool.available(), pool.size());

  for (size_t round = 1; round < rounds; ++round) run_round(false);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(pool.size(), threads)
      << "pool grew after the warm-up round: leases are not recycled";
  EXPECT_EQ(pool.available(), pool.size());
}

TEST(ShardedSearchStress, BidirectionalSharedPoolNoGrowthOnceWarm) {
  StressSharedPool(Algorithm::kBidirectional, 2, 5);
}

TEST(ShardedSearchStress, BidirectionalFourShards) {
  StressSharedPool(Algorithm::kBidirectional, 4, 4);
}

TEST(ShardedSearchStress, BackwardSISharedPool) {
  StressSharedPool(Algorithm::kBackwardSI, 4, 4);
}

TEST(ShardedSearchStress, BackwardMISharedPool) {
  StressSharedPool(Algorithm::kBackwardMI, 4, 4);
}

// ---- Concurrent streams ---------------------------------------------------
// Pauses land only between complete expansions, so even the most hostile
// pull cadence — one step of budget per Next() — must reproduce the
// drained answer sequence exactly, prefix by prefix, while other copies
// of the same stream pause and resume on other threads.

class ShardedStreaming : public ::testing::TestWithParam<Algorithm> {};

INSTANTIATE_TEST_SUITE_P(
    Algorithms, ShardedStreaming,
    ::testing::Values(Algorithm::kBackwardMI, Algorithm::kBackwardSI,
                      Algorithm::kBidirectional),
    [](const auto& info) {
      std::string name = AlgorithmName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST_P(ShardedStreaming, StepBudgetOnePrefixIdenticalAcrossShardCounts) {
  Graph graph = testing::MakeRandomGraph(200, 800, 13);
  std::vector<double> prestige = UniformPrestige(graph.num_nodes());
  std::vector<std::vector<NodeId>> origins = {{0, 11, 53}, {7, 99, 180}};
  SearchOptions options;
  options.bound = BoundMode::kTight;
  options.k = 6;

  auto searcher = CreateSearcher(GetParam(), graph, prestige, options);
  SearchContext ref_context;
  SearchResult reference = searcher->Search(origins, &ref_context);
  ASSERT_FALSE(reference.answers.empty());

  struct Pulled {
    std::vector<AnswerTree> answers;
    SearchMetrics metrics;
    size_t pauses = 0;
    bool stalled = false;
  };
  for (size_t copies : {1u, 2u, 4u, 8u}) {
    std::vector<Pulled> pulled(copies);
    RunConcurrently(copies, [&](size_t c) {
      StreamOptions stream_options;
      stream_options.step_budget = 1;
      SearchContext context;
      AnswerStream stream(searcher.get(), origins, stream_options, &context);
      size_t guard = 0;
      while (!stream.done()) {
        if (++guard >= 200000u) {
          pulled[c].stalled = true;
          break;
        }
        auto answer = stream.Next();
        if (answer.has_value()) {
          pulled[c].answers.push_back(std::move(*answer));
        } else if (stream.hit_limit()) {
          ++pulled[c].pauses;  // paused between expansions; resume
        } else {
          break;
        }
      }
      pulled[c].metrics = stream.metrics();
    });
    for (size_t c = 0; c < copies; ++c) {
      const std::string what =
          "copies=" + std::to_string(copies) + " copy " + std::to_string(c);
      ASSERT_FALSE(pulled[c].stalled) << what << ": stream made no progress";
      ASSERT_EQ(pulled[c].answers.size(), reference.answers.size()) << what;
      for (size_t i = 0; i < pulled[c].answers.size(); ++i) {
        EXPECT_TRUE(SameAnswer(pulled[c].answers[i], reference.answers[i]))
            << what << ": answer " << i << " differs";
      }
      // Pausing is behavior-neutral: the reassembled run's counters match
      // the drained run's.
      const SearchMetrics& m = pulled[c].metrics;
      EXPECT_EQ(m.nodes_explored, reference.metrics.nodes_explored) << what;
      EXPECT_EQ(m.edges_relaxed, reference.metrics.edges_relaxed) << what;
      EXPECT_EQ(m.answers_output, reference.metrics.answers_output) << what;
      EXPECT_GT(pulled[c].pauses, 0u)
          << what << ": step budget 1 never paused; resume is not exercised";
    }
  }
}

// ---- Mixed stress: streams + subscriptions over one pool ------------------
// Two threads pull inline streams on contexts they lease from the
// scheduler's SearchContextPool, while two threads each subscribe a batch
// of three queries to that scheduler and wait for them all. Every result
// must match its lone reference, and after the storm the pool must be
// fully idle (every lease returned).

TEST(ShardedMixedStress, StreamsAndBatchesShareOnePoolPair) {
  DblpConfig config;
  config.num_authors = 80;
  config.num_papers = 160;
  config.num_conferences = 8;
  Database db = GenerateDblp(config);
  Engine engine = Engine::FromDatabase(db);
  const NodeId n = static_cast<NodeId>(engine.graph().num_nodes());
  ASSERT_GT(n, 40u);

  std::vector<std::vector<NodeId>> stream_origins = {
      {1, static_cast<NodeId>(n / 3), static_cast<NodeId>(n / 2)},
      {7, static_cast<NodeId>(n - 5)}};
  std::vector<std::vector<std::vector<NodeId>>> batch_origins = {
      {{2, static_cast<NodeId>(n / 4)}, {static_cast<NodeId>(n - 9)}},
      {{3, static_cast<NodeId>(n / 5)}, {11, static_cast<NodeId>(n / 2 + 1)}},
      {{static_cast<NodeId>(n / 7)}, {5, static_cast<NodeId>(n - 17)}}};

  SearchOptions options;
  options.bound = BoundMode::kTight;
  options.k = 5;

  SearchResult stream_reference =
      engine.QueryResolved(stream_origins, Algorithm::kBidirectional, options);
  std::vector<SearchResult> batch_reference;
  for (const auto& origins : batch_origins) {
    batch_reference.push_back(
        engine.QueryResolved(origins, Algorithm::kBidirectional, options));
  }

  SchedulerOptions scheduler_options;
  scheduler_options.num_workers = 2;
  // Four run slots for six subscriptions: the rest wait in the admission
  // queue holding no context, which bounds the pool's high-water mark.
  scheduler_options.max_running = 4;
  Scheduler scheduler(scheduler_options);
  SearchContextPool& ctx_pool = scheduler.context_pool();
  std::atomic<size_t> mismatches{0};
  constexpr size_t kRounds = 2;

  auto same_result = [](const SearchResult& a, const SearchResult& b) {
    if (a.answers.size() != b.answers.size()) return false;
    for (size_t i = 0; i < a.answers.size(); ++i) {
      if (!SameAnswer(a.answers[i], b.answers[i])) return false;
    }
    return a.metrics.nodes_explored == b.metrics.nodes_explored;
  };

  auto stream_thread = [&] {
    StreamOptions stream_options;
    stream_options.step_budget = 16;
    for (size_t round = 0; round < kRounds; ++round) {
      SearchContextPool::Lease context = ctx_pool.Acquire();
      AnswerStream stream =
          engine.OpenQueryResolved(stream_origins, Algorithm::kBidirectional,
                                   options, stream_options, context.get());
      std::vector<AnswerTree> pulled;
      while (!stream.done()) {
        auto answer = stream.Next();
        if (answer.has_value()) {
          pulled.push_back(std::move(*answer));
        } else if (!stream.hit_limit()) {
          break;
        }
      }
      bool same = pulled.size() == stream_reference.answers.size();
      for (size_t i = 0; same && i < pulled.size(); ++i) {
        same = SameAnswer(pulled[i], stream_reference.answers[i]);
      }
      if (!same) mismatches.fetch_add(1);
    }
  };

  auto batch_thread = [&] {
    SubscribeOptions subscribe;
    subscribe.scheduler = &scheduler;
    for (size_t round = 0; round < kRounds; ++round) {
      std::vector<QueueSink> sinks(batch_origins.size());
      std::vector<Subscription> subs;
      for (size_t i = 0; i < batch_origins.size(); ++i) {
        subs.push_back(engine.SubscribeResolved(batch_origins[i],
                                                Algorithm::kBidirectional,
                                                &sinks[i], options, subscribe));
      }
      for (size_t i = 0; i < subs.size(); ++i) {
        SearchResult got;
        if (subs[i].Wait() != SubscribeStatus::kCompleted) {
          mismatches.fetch_add(1);
          continue;
        }
        AnswerTree answer;
        while (sinks[i].TryPop(&answer)) got.answers.push_back(answer);
        got.metrics = sinks[i].final_metrics();
        if (!same_result(got, batch_reference[i])) mismatches.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(stream_thread);
  threads.emplace_back(stream_thread);
  threads.emplace_back(batch_thread);
  threads.emplace_back(batch_thread);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  // Every lease returned: the pool is fully idle.
  EXPECT_EQ(ctx_pool.available(), ctx_pool.size());
  // High-water: ≤ 2 stream leases plus ≤ 4 run slots.
  EXPECT_LE(ctx_pool.size(), 6u);
  EXPECT_GT(ctx_pool.acquires(), 0u);
}

}  // namespace
}  // namespace banks
