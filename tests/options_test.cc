#include <gtest/gtest.h>

#include "search/output_heap.h"
#include "test_util.h"

namespace banks {
namespace {

using testing::MakeRandomGraph;
using testing::RunSearch;

AnswerTree ScoredTree(NodeId root, double score) {
  AnswerTree t;
  t.root = root;
  t.keyword_nodes = {root};
  t.keyword_distances = {0};
  t.score = score;
  return t;
}

// ------------------------------------------------ OutputHeap::ReleaseBest --

TEST(OutputHeapReleaseBest, ReleasesExactlyCount) {
  OutputHeap heap;
  for (NodeId r = 0; r < 10; ++r) heap.Insert(ScoredTree(r, 0.1 * r));
  std::vector<AnswerTree> out;
  heap.ReleaseBest(3, 100, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].root, 9u);
  EXPECT_EQ(out[2].root, 7u);
  EXPECT_EQ(heap.pending_count(), 7u);
}

TEST(OutputHeapReleaseBest, HonorsGlobalLimit) {
  OutputHeap heap;
  for (NodeId r = 0; r < 10; ++r) heap.Insert(ScoredTree(r, 0.1 * r));
  std::vector<AnswerTree> out(2);  // already two answers released
  heap.ReleaseBest(5, 4, &out);
  EXPECT_EQ(out.size(), 4u);  // limit 4 caps the batch at 2
}

TEST(OutputHeapReleaseBest, CachedBestStaysCorrect) {
  OutputHeap heap;
  heap.Insert(ScoredTree(1, 0.9));
  heap.Insert(ScoredTree(2, 0.5));
  EXPECT_DOUBLE_EQ(heap.BestPendingScore(), 0.9);
  std::vector<AnswerTree> out;
  heap.ReleaseBest(1, 10, &out);
  EXPECT_DOUBLE_EQ(heap.BestPendingScore(), 0.5);
  heap.Insert(ScoredTree(3, 0.7));
  EXPECT_DOUBLE_EQ(heap.BestPendingScore(), 0.7);
  out.clear();
  heap.Drain(10, &out);
  EXPECT_DOUBLE_EQ(heap.BestPendingScore(), -1);
}

// ------------------------------------------------------ Option behaviour --

class OptionsSweep : public ::testing::TestWithParam<Algorithm> {};

INSTANTIATE_TEST_SUITE_P(Algorithms, OptionsSweep,
                         ::testing::Values(Algorithm::kBackwardMI,
                                           Algorithm::kBackwardSI,
                                           Algorithm::kBidirectional),
                         [](const auto& info) {
                           std::string n = AlgorithmName(info.param);
                           n.erase(std::remove(n.begin(), n.end(), '-'),
                                   n.end());
                           return n;
                         });

TEST_P(OptionsSweep, PatienceZeroStillTerminates) {
  Graph g = MakeRandomGraph(150, 600, 3);
  SearchOptions options;
  options.bound = BoundMode::kLoose;
  options.release_patience = 0;  // disabled: only edge-bound + drain
  options.k = 5;
  SearchResult r = RunSearch(GetParam(), g, {{0, 1}, {2, 3}}, options);
  EXPECT_EQ(r.metrics.answers_output, r.answers.size());
}

// bound_check_interval travels over the wire unvalidated; 0 must mean
// "check after every expansion" (same as 1), not a division by zero.
TEST_P(OptionsSweep, ZeroBoundCheckIntervalActsAsOne) {
  Graph g = MakeRandomGraph(150, 600, 3);
  for (BoundMode bound :
       {BoundMode::kTight, BoundMode::kLoose, BoundMode::kImmediate}) {
    SearchOptions zero;
    zero.k = 5;
    zero.bound = bound;
    zero.bound_check_interval = 0;
    SearchOptions one = zero;
    one.bound_check_interval = 1;
    SearchResult a = RunSearch(GetParam(), g, {{0, 1}, {2, 3}}, zero);
    SearchResult b = RunSearch(GetParam(), g, {{0, 1}, {2, 3}}, one);
    ASSERT_EQ(a.answers.size(), b.answers.size());
    for (size_t i = 0; i < a.answers.size(); ++i) {
      EXPECT_TRUE(SameAnswer(a.answers[i], b.answers[i])) << "answer " << i;
    }
    EXPECT_EQ(a.metrics.nodes_explored, b.metrics.nodes_explored);
  }
}

TEST_P(OptionsSweep, LooseAndTightAgreeOnBestAnswer) {
  Graph g = MakeRandomGraph(180, 700, 11);
  SearchOptions tight;
  tight.k = 1;
  SearchOptions loose = tight;
  loose.bound = BoundMode::kLoose;
  SearchResult rt = RunSearch(GetParam(), g, {{0, 4}, {1, 5}}, tight);
  SearchResult rl = RunSearch(GetParam(), g, {{0, 4}, {1, 5}}, loose);
  ASSERT_EQ(rt.answers.empty(), rl.answers.empty());
  if (!rt.answers.empty()) {
    EXPECT_NEAR(rt.answers[0].score, rl.answers[0].score, 1e-9);
  }
}

TEST_P(OptionsSweep, MaxAnswersGeneratedBudget) {
  Graph g = MakeRandomGraph(300, 1500, 17);
  SearchOptions options;
  options.max_answers_generated = 3;
  options.k = 50;
  SearchResult r = RunSearch(GetParam(), g, {{0, 1, 2}, {3, 4, 5}}, options);
  // Once the cap trips, the search stops and drains.
  if (r.metrics.answers_generated >= 3) {
    EXPECT_TRUE(r.metrics.budget_exhausted);
  }
}

TEST_P(OptionsSweep, SmallDmaxSubsetOfLargeDmax) {
  // Every answer findable at dmax=2 is also findable at dmax=8 with a
  // score at least as good.
  Graph g = MakeRandomGraph(120, 500, 23);
  SearchOptions small;
  small.dmax = 2;
  small.k = 5;
  SearchOptions large = small;
  large.dmax = 8;
  SearchResult rs = RunSearch(GetParam(), g, {{0, 2}, {1, 3}}, small);
  SearchResult rl = RunSearch(GetParam(), g, {{0, 2}, {1, 3}}, large);
  if (!rs.answers.empty()) {
    ASSERT_FALSE(rl.answers.empty());
    EXPECT_GE(rl.answers[0].score + 1e-9, rs.answers[0].score);
  }
}

TEST_P(OptionsSweep, KOneFindsGlobalBest) {
  Graph g = MakeRandomGraph(150, 600, 29);
  SearchOptions k1;
  k1.k = 1;
  SearchOptions k10;
  k10.k = 10;
  SearchResult r1 = RunSearch(GetParam(), g, {{0, 6}, {1, 7}}, k1);
  SearchResult r10 = RunSearch(GetParam(), g, {{0, 6}, {1, 7}}, k10);
  ASSERT_EQ(r1.answers.empty(), r10.answers.empty());
  if (!r1.answers.empty()) {
    EXPECT_NEAR(r1.answers[0].score, r10.answers[0].score, 1e-9);
  }
}

}  // namespace
}  // namespace banks
