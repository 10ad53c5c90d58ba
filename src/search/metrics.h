#ifndef BANKS_SEARCH_METRICS_H_
#define BANKS_SEARCH_METRICS_H_

#include <cstdint>
#include <vector>

namespace banks {

/// Counters for the paper's three performance measures (§5.2):
/// nodes explored (popped from a frontier queue and processed), nodes
/// touched (inserted into a frontier queue), and time taken — plus the
/// generation-vs-output split that Figure 5's "Gen time / Out time"
/// columns report.
struct SearchMetrics {
  /// Nodes popped from Q_in/Q_out (Bidirectional) or from iterator
  /// frontiers (Backward variants) and processed.
  uint64_t nodes_explored = 0;

  /// Nodes inserted into a frontier queue ("fringe nodes seen", §5.2).
  uint64_t nodes_touched = 0;

  /// Edge relaxations performed (ExploreEdge calls).
  uint64_t edges_relaxed = 0;

  /// Distance/activation propagation steps through reached ancestors
  /// (Attach/Activate recursion work; §4.2.1 notes this repeated
  /// propagation is the price of non-distance prioritization).
  uint64_t propagation_steps = 0;

  uint64_t answers_generated = 0;
  uint64_t answers_output = 0;

  /// Buffer-pool outcomes of the paged-graph adjacency/posting reads
  /// this search performed. Like elapsed_seconds these are
  /// *execution-dependent*, not part of the deterministic contract:
  /// whether a page is pooled when touched depends on pool size,
  /// eviction history and concurrent queries, so differential tests
  /// must exclude them (answers and the counters above stay
  /// byte-identical regardless). All zero on resident graphs.
  uint64_t page_hits = 0;
  uint64_t page_misses = 0;

  /// Failed page reads observed by this search (PagePin::failed); the
  /// slice that sees one ends with SearchStatus::kIoError. Execution-
  /// dependent like the page counters above.
  uint64_t io_errors = 0;

  /// Wall-clock seconds for the whole search.
  double elapsed_seconds = 0;

  /// Timestamp (seconds since search start) when the i-th *output*
  /// answer was generated and released, respectively. output_times is
  /// nondecreasing; generated_times typically is not (§4.5: answers are
  /// buffered until no better answer can appear).
  std::vector<double> generated_times;
  std::vector<double> output_times;

  /// True if the search ended due to a budget (node/answer cap) rather
  /// than queue exhaustion or top-k completion.
  bool budget_exhausted = false;
};

}  // namespace banks

#endif  // BANKS_SEARCH_METRICS_H_
