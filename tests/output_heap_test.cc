// Pooled-reuse contract of the OutputHeap and the Backward-MI frontier
// pool: a warm (recycled) buffer must behave byte-identically to a
// fresh one, and the warm path must not grow the pools. Plus the heap's
// duplicate merging and release order, checked against a naive model.

#include "search/output_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "search/search_context.h"
#include "search/searcher.h"
#include "test_util.h"
#include "util/rng.h"

namespace banks {
namespace {

using testing::MakeFig4Graph;
using testing::MakeRandomGraph;

AnswerTree ScoredTree(NodeId root, double score, double eraw) {
  AnswerTree t;
  t.root = root;
  t.keyword_nodes = {root};
  t.keyword_distances = {0};
  t.score = score;
  t.edge_score_raw = eraw;
  return t;
}

/// One scripted round of Insert / partial releases / Drain, returning
/// every observable the heap exposes along the way.
struct RoundLog {
  std::vector<bool> insert_results;
  std::vector<AnswerTree> released;
  std::vector<size_t> pending_counts;
  std::vector<double> best_scores;
};

RoundLog RunSequence(OutputHeap* heap, uint64_t salt) {
  RoundLog log;
  auto observe = [&] {
    log.pending_counts.push_back(heap->pending_count());
    log.best_scores.push_back(heap->BestPendingScore());
  };
  // Roots vary with `salt` so different rounds buffer different trees.
  for (NodeId r = 0; r < 12; ++r) {
    NodeId root = r + static_cast<NodeId>(salt) * 100;
    log.insert_results.push_back(
        heap->Insert(ScoredTree(root, 0.05 * (r % 7) + 0.1, 10.0 - r)));
  }
  // Duplicates: worse (dropped), better (kept).
  log.insert_results.push_back(heap->Insert(
      ScoredTree(static_cast<NodeId>(salt) * 100, 0.01, 20)));
  log.insert_results.push_back(heap->Insert(
      ScoredTree(static_cast<NodeId>(salt) * 100, 0.95, 1)));
  observe();
  heap->ReleaseWithScoreBound(0.3, 100, &log.released);
  observe();
  heap->ReleaseWithEdgeBound(5.0, 100, &log.released);
  observe();
  // Re-insert an already released signature: must be dropped.
  log.insert_results.push_back(heap->Insert(
      ScoredTree(static_cast<NodeId>(salt) * 100, 0.99, 1)));
  heap->ReleaseBest(2, 100, &log.released);
  observe();
  heap->Drain(100, &log.released);
  observe();
  return log;
}

void ExpectSameLog(const RoundLog& a, const RoundLog& b) {
  EXPECT_EQ(a.insert_results, b.insert_results);
  EXPECT_EQ(a.pending_counts, b.pending_counts);
  EXPECT_EQ(a.best_scores, b.best_scores);
  ASSERT_EQ(a.released.size(), b.released.size());
  for (size_t i = 0; i < a.released.size(); ++i) {
    EXPECT_TRUE(SameAnswer(a.released[i], b.released[i])) << i;
  }
}

TEST(OutputHeapPooling, WarmHeapMatchesFreshAcrossSequences) {
  OutputHeap warm;
  for (uint64_t round = 0; round < 5; ++round) {
    warm.Reset();
    OutputHeap fresh;
    RoundLog warm_log = RunSequence(&warm, round);
    RoundLog fresh_log = RunSequence(&fresh, round);
    ExpectSameLog(warm_log, fresh_log);
  }
}

TEST(OutputHeapPooling, ResetForgetsReleasedSignatures) {
  OutputHeap heap;
  ASSERT_TRUE(heap.Insert(ScoredTree(7, 0.5, 1)));
  std::vector<AnswerTree> out;
  heap.Drain(10, &out);
  EXPECT_FALSE(heap.Insert(ScoredTree(7, 0.9, 1)));  // released is final
  heap.Reset();
  EXPECT_EQ(heap.pending_count(), 0u);
  EXPECT_TRUE(heap.Insert(ScoredTree(7, 0.9, 1)));  // new query, new life
  EXPECT_EQ(heap.pending_count(), 1u);
}

TEST(OutputHeapPooling, InsertCopyMatchesInsertAndKeepsScratchIntact) {
  OutputHeap by_move;
  OutputHeap by_copy;
  AnswerTree scratch;
  for (NodeId r = 0; r < 8; ++r) {
    AnswerTree t = ScoredTree(r % 5, 0.1 * r, 8.0 - r);
    scratch = t;
    EXPECT_EQ(by_move.Insert(t), by_copy.InsertCopy(scratch));
    // The scratch stays usable after a rejected or accepted copy.
    EXPECT_EQ(scratch.root, r % 5);
    EXPECT_EQ(scratch.keyword_nodes.size(), 1u);
  }
  std::vector<AnswerTree> move_out;
  std::vector<AnswerTree> copy_out;
  by_move.Drain(100, &move_out);
  by_copy.Drain(100, &copy_out);
  ASSERT_EQ(move_out.size(), copy_out.size());
  for (size_t i = 0; i < move_out.size(); ++i) {
    EXPECT_TRUE(SameAnswer(move_out[i], copy_out[i])) << i;
  }
}

// ---- Backward-MI frontier pool ---------------------------------------------

TEST(FrontierPool, SegmentsClearButKeepCapacity) {
  FrontierPool pool;
  pool.EnsureSegments(3);
  EXPECT_EQ(pool.segment_count(), 3u);
  for (int i = 0; i < 50; ++i) pool.Segment(1).emplace_back(1.0 * i, i);
  size_t capacity = pool.TotalCapacity();
  EXPECT_GE(capacity, 50u);
  pool.Clear();
  EXPECT_TRUE(pool.Segment(1).empty());
  EXPECT_EQ(pool.TotalCapacity(), capacity);  // capacity survives Clear
  pool.EnsureSegments(2);                     // never shrinks
  EXPECT_EQ(pool.segment_count(), 3u);
}

TEST(FrontierPool, WarmMIQueriesReuseFrontiersWithIdenticalAnswers) {
  testing::Fig4Graph fig = MakeFig4Graph();
  std::vector<double> prestige(fig.graph.num_nodes(), 1.0);
  SearchOptions options;
  options.k = 5;
  auto searcher = CreateSearcher(Algorithm::kBackwardMI, fig.graph, prestige,
                                 options);
  // "Database John": the frequent keyword builds ~100 MI iterators, each
  // with its own pooled frontier segment.
  std::vector<std::vector<NodeId>> origins = {fig.database_papers,
                                              {fig.john}};

  SearchContext ctx;
  SearchResult first = searcher->Search(origins, &ctx);
  ASSERT_GT(first.answers.size(), 0u);
  const size_t segments_after_first = ctx.frontiers.segment_count();
  const size_t capacity_after_first = ctx.frontiers.TotalCapacity();
  EXPECT_GE(segments_after_first, fig.database_papers.size());

  for (int round = 0; round < 3; ++round) {
    SearchResult again = searcher->Search(origins, &ctx);
    ASSERT_EQ(again.answers.size(), first.answers.size());
    for (size_t i = 0; i < first.answers.size(); ++i) {
      EXPECT_TRUE(SameAnswer(again.answers[i], first.answers[i])) << i;
    }
    // Warm path: zero pool growth — no new segments, no regrowth.
    EXPECT_EQ(ctx.frontiers.segment_count(), segments_after_first);
    EXPECT_EQ(ctx.frontiers.TotalCapacity(), capacity_after_first);
  }
}

TEST(FrontierPool, MixedQuerySizesOnOneContextStayCorrect) {
  Graph graph = MakeRandomGraph(300, 1200, 42);
  std::vector<double> prestige(graph.num_nodes(), 1.0);
  SearchOptions options;
  options.k = 4;
  auto searcher =
      CreateSearcher(Algorithm::kBackwardMI, graph, prestige, options);

  // Alternate a many-iterator query with a two-iterator one: stale
  // segments from the bigger query must never leak into the smaller.
  std::vector<std::vector<NodeId>> big = {{1, 2, 3, 4, 5, 6, 7, 8},
                                          {20, 21, 22, 23}};
  std::vector<std::vector<NodeId>> small = {{9}, {30}};
  SearchContext fresh_big_ctx;
  SearchContext fresh_small_ctx;
  SearchResult ref_big = searcher->Search(big, &fresh_big_ctx);
  SearchResult ref_small = searcher->Search(small, &fresh_small_ctx);

  SearchContext ctx;
  for (int round = 0; round < 3; ++round) {
    SearchResult b = searcher->Search(big, &ctx);
    SearchResult s = searcher->Search(small, &ctx);
    ASSERT_EQ(b.answers.size(), ref_big.answers.size());
    for (size_t i = 0; i < b.answers.size(); ++i) {
      EXPECT_TRUE(SameAnswer(b.answers[i], ref_big.answers[i])) << i;
    }
    ASSERT_EQ(s.answers.size(), ref_small.answers.size());
    for (size_t i = 0; i < s.answers.size(); ++i) {
      EXPECT_TRUE(SameAnswer(s.answers[i], ref_small.answers[i])) << i;
    }
  }
}

// ---- Duplicate merging and release order vs a naive model ---------------
// Property: every insert verdict, release sequence, pending count and
// best pending score of the pooled OutputHeap equals that of a plain
// map-based model of its contract — one record per rotation signature
// keeping the best-scored copy, releases final, release order score
// descending then signature ascending, each release stopping once the
// output holds `limit` answers.

struct HeapModel {
  struct Entry {
    AnswerTree tree;
    bool released = false;
  };
  std::map<uint64_t, Entry> entries;

  bool Insert(const AnswerTree& t) {
    auto [it, fresh] = entries.try_emplace(t.Signature(), Entry{t});
    if (fresh) return true;
    Entry& e = it->second;
    if (e.released || e.tree.score >= t.score) return false;
    e.tree = t;
    return true;
  }

  template <typename Pred>
  void Release(Pred releasable, size_t limit, std::vector<AnswerTree>* out) {
    std::vector<std::pair<double, uint64_t>> picks;
    for (const auto& [sig, e] : entries) {
      if (!e.released && releasable(e.tree)) picks.emplace_back(e.tree.score, sig);
    }
    std::sort(picks.begin(), picks.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    for (const auto& [score, sig] : picks) {
      if (out->size() >= limit) break;
      entries[sig].released = true;
      out->push_back(entries[sig].tree);
    }
  }

  size_t pending() const {
    size_t n = 0;
    for (const auto& [sig, e] : entries) n += e.released ? 0 : 1;
    return n;
  }

  double best() const {
    double best = -1;
    for (const auto& [sig, e] : entries) {
      if (!e.released) best = std::max(best, e.tree.score);
    }
    return best;
  }
};

/// Applies every operation to both the heap and the model.
struct ModelFixture {
  OutputHeap heap;
  HeapModel model;
  std::vector<AnswerTree> heap_out;
  std::vector<AnswerTree> model_out;

  void Insert(const AnswerTree& t) {
    bool a = heap.InsertCopy(t);
    bool b = model.Insert(t);
    EXPECT_EQ(a, b);
  }
  void ReleaseWithScoreBound(double bound, size_t limit) {
    heap.ReleaseWithScoreBound(bound, limit, &heap_out);
    model.Release([&](const AnswerTree& t) { return t.score >= bound; },
                  limit, &model_out);
  }
  void ReleaseWithEdgeBound(double max_eraw, size_t limit) {
    heap.ReleaseWithEdgeBound(max_eraw, limit, &heap_out);
    model.Release(
        [&](const AnswerTree& t) { return t.edge_score_raw <= max_eraw; },
        limit, &model_out);
  }
  void ReleaseBest(size_t count, size_t limit) {
    heap.ReleaseBest(count, limit, &heap_out);
    model.Release([](const AnswerTree&) { return true; },
                  std::min(limit, model_out.size() + count), &model_out);
  }
  void Drain(size_t limit) {
    heap.Drain(limit, &heap_out);
    model.Release([](const AnswerTree&) { return true; }, limit, &model_out);
  }

  void ExpectAggregatesMatch() {
    EXPECT_EQ(heap.pending_count(), model.pending());
    EXPECT_EQ(heap.BestPendingScore(), model.best());
  }
  void ExpectOutputsMatch() {
    ASSERT_EQ(heap_out.size(), model_out.size());
    for (size_t i = 0; i < heap_out.size(); ++i) {
      EXPECT_TRUE(SameAnswer(heap_out[i], model_out[i])) << i;
    }
  }
};

TEST(OutputHeapMerge, ScriptedReleasesMatchSingleHeap) {
  ModelFixture f;
  for (NodeId r = 0; r < 20; ++r) {
    f.Insert(ScoredTree(r, 0.03 * (r % 9) + 0.05, 18.0 - r));
  }
  // Duplicates across the script: worse and better rotations.
  f.Insert(ScoredTree(4, 0.01, 30));
  f.Insert(ScoredTree(4, 0.93, 2));
  f.ExpectAggregatesMatch();

  f.ReleaseWithScoreBound(0.2, 7);
  f.ExpectAggregatesMatch();
  f.ExpectOutputsMatch();

  f.ReleaseWithEdgeBound(9.0, 12);
  f.ExpectAggregatesMatch();
  f.ExpectOutputsMatch();

  f.ReleaseBest(3, 100);
  f.ExpectAggregatesMatch();
  f.ExpectOutputsMatch();

  // Late duplicate of a released signature: dropped on both sides.
  f.Insert(ScoredTree(0, 0.99, 1));

  f.Drain(100);
  f.ExpectAggregatesMatch();
  f.ExpectOutputsMatch();
}

TEST(OutputHeapMerge, FuzzedSequencesMatchSingleHeap) {
  Rng rng(0xBA27C5);
  // Smaller root spaces mean denser duplicate signatures.
  for (size_t root_space : {4u, 8u, 24u, 64u}) {
    for (int round = 0; round < 12; ++round) {
      ModelFixture f;
      size_t ops = 30 + rng.Below(40);
      for (size_t op = 0; op < ops; ++op) {
        switch (rng.Below(6)) {
          case 0:
          case 1:
          case 2: {
            NodeId root = static_cast<NodeId>(rng.Below(root_space));
            double score = 0.01 * (1 + rng.Below(99));
            double eraw = 0.5 * (1 + rng.Below(30));
            f.Insert(ScoredTree(root, score, eraw));
            break;
          }
          case 3:
            f.ReleaseWithScoreBound(0.01 * rng.Below(110),
                                    f.heap_out.size() + rng.Below(6));
            break;
          case 4:
            f.ReleaseWithEdgeBound(0.5 * rng.Below(35),
                                   f.heap_out.size() + rng.Below(6));
            break;
          case 5:
            f.ReleaseBest(1 + rng.Below(4), 1000);
            break;
        }
        f.ExpectAggregatesMatch();
      }
      f.Drain(1000);
      f.ExpectAggregatesMatch();
      f.ExpectOutputsMatch();
    }
  }
}

TEST(OutputHeapMerge, LimitedReleaseStillDiscardsDuplicateOfTakenSig) {
  // Two rotations of one signature merge into the better copy; taking
  // it against a tight limit makes the signature final — neither the
  // merged-away copy nor a later, better rotation may surface again.
  OutputHeap heap;
  ASSERT_TRUE(heap.Insert(ScoredTree(7, 0.4, 5)));
  ASSERT_TRUE(heap.Insert(ScoredTree(7, 0.9, 3)));
  EXPECT_EQ(heap.pending_count(), 1u);
  std::vector<AnswerTree> out;
  heap.Drain(/*limit=*/1, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].score, 0.9);
  EXPECT_EQ(heap.pending_count(), 0u);
  EXPECT_FALSE(heap.Insert(ScoredTree(7, 0.95, 2)));
  std::vector<AnswerTree> later;
  heap.Drain(100, &later);
  EXPECT_TRUE(later.empty()) << "duplicate signature emitted twice";
}

}  // namespace
}  // namespace banks
