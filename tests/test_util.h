#ifndef BANKS_TESTS_TEST_UTIL_H_
#define BANKS_TESTS_TEST_UTIL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "graph/graph.h"
#include "search/answer.h"
#include "search/searcher.h"

namespace banks::testing {

/// Builds the example graph of Figure 4 of the paper:
///   node 0            — paper #100 ("Database paper" root)
///   nodes 1, 2        — authors #101 (James) and #102 (John)
///   nodes 3..50       — Writes tuples #103..#150; node 3 links the
///                       root paper to John, node 4 links it to James
///                       ... wait — see the .cc for the exact wiring.
///
/// Layout (returned ids):
///   root_paper, james, john, writes_james_root, writes_john_root,
///   other papers and their writes links to john, database papers.
/// The structure reproduces the paper's counts: "Database" matches 100
/// papers, "James"/"John" match one author each; John has authored 48
/// papers (large fan-in); the desired answer is rooted at the root
/// paper.
struct Fig4Graph {
  Graph graph;
  NodeId root_paper;               // #100
  NodeId james;                    // #101
  NodeId john;                     // #102
  std::vector<NodeId> database_papers;  // #1..#100 (includes root_paper)
  std::vector<NodeId> writes_nodes;
};

Fig4Graph MakeFig4Graph();

/// Simple path graph 0→1→2→...→(n-1) with unit weights.
Graph MakePathGraph(size_t n, bool backward_edges = true);

/// Star: center node 0, leaves 1..n, edges leaf→center (leaves reference
/// the hub, like papers referencing a conference).
Graph MakeStarGraph(size_t leaves, bool backward_edges = true);

/// Deterministic pseudo-random DAG-ish graph for property tests.
Graph MakeRandomGraph(size_t nodes, size_t edges, uint64_t seed,
                      bool backward_edges = true);

/// Convenience: run an algorithm over explicit origins with uniform
/// prestige.
SearchResult RunSearch(Algorithm algorithm, const Graph& graph,
                       const std::vector<std::vector<NodeId>>& origins,
                       const SearchOptions& options = {});

/// Asserts structural validity of every answer in a result; returns the
/// first error string (empty if all valid).
std::string ValidateAnswers(const Graph& graph, const SearchResult& result);

/// True if every answer's score is non-increasing in output order.
bool ScoresNonIncreasing(const SearchResult& result);

/// Copies of a query kept in flight alongside a test body: `copies`
/// threads each call `run` at least once and keep calling it until
/// Join(), so they overlap whatever the test does in between. `run`
/// returns whether its result matched the expected one; Join() returns
/// how many calls did not. Destruction joins.
class BackgroundCopies {
 public:
  BackgroundCopies(size_t copies, std::function<bool()> run);
  ~BackgroundCopies() { Join(); }
  BackgroundCopies(const BackgroundCopies&) = delete;
  BackgroundCopies& operator=(const BackgroundCopies&) = delete;

  size_t Join();
  /// Completed calls so far, across all threads.
  size_t calls() const { return calls_.load(); }

 private:
  std::function<bool()> run_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> calls_{0};
  std::atomic<size_t> mismatches_{0};
  std::vector<std::thread> threads_;
};

/// Calls fn(0) … fn(n - 1) at once, one thread each, and waits for all.
void RunConcurrently(size_t n, const std::function<void(size_t)>& fn);

}  // namespace banks::testing

#endif  // BANKS_TESTS_TEST_UTIL_H_
