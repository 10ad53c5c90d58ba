#include "search/search_context.h"

#include <algorithm>

namespace banks {

void SearchContext::StreamState::Reset() {
  phase = Phase::kFresh;
  // Clear rather than assign fresh objects: the answers vector and the
  // metrics' per-answer time vectors keep their capacity, so a warm
  // stream's bookkeeping allocates nothing.
  result.answers.clear();
  SearchMetrics& m = result.metrics;
  m.nodes_explored = 0;
  m.nodes_touched = 0;
  m.edges_relaxed = 0;
  m.propagation_steps = 0;
  m.answers_generated = 0;
  m.answers_output = 0;
  m.page_hits = 0;
  m.page_misses = 0;
  m.page_waits = 0;
  m.io_errors = 0;
  m.elapsed_seconds = 0;
  m.generated_times.clear();
  m.output_times.clear();
  m.budget_exhausted = false;
  steps = 0;
  last_progress = 0;
  last_top = -1;
  elapsed = 0;
  page_fault_retries = 0;
  page_fetch_pending = false;
}

void SearchContext::BeginQuery(size_t num_keywords) {
  ++queries_started_;

  node_index.Clear();
  node.clear();
  depth.clear();
  state_flags.clear();
  last_eraw.clear();
  marked_time.clear();
  marked_explored.clear();
  marked_touched.clear();
  parents.clear();
  children.clear();

  dist.clear();
  sp.clear();
  act.clear();
  act_sum.clear();
  edge_lists.Clear();
  qin.Clear();
  qout.Clear();
  qin_depth.Clear();
  qout_depth.Clear();
  if (min_dist.size() < num_keywords) min_dist.resize(num_keywords);
  for (auto& h : min_dist) h.Clear();
  dirty_roots.clear();
  best_eraws.clear();
  // The Attach/Activate loops drain their queues before returning, so
  // these are only non-empty if a previous query aborted mid-propagation
  // (e.g. via an exception unwinding through Search).
  while (!attach_queue.empty()) attach_queue.pop();
  while (!activate_queue.empty()) activate_queue.pop();
  bound_scratch.clear();

  output_heap.Reset();
  kw_scratch.clear();
  union_edge_scratch.clear();
  uniq_scratch.clear();

  for (auto& m : reach_maps) m.Clear();
  frontiers.Clear();
  iter_keyword.clear();
  iter_origin.clear();
  scheduler.clear();
  id_scratch.clear();
  si_frontier.clear();
  visit_dist.clear();
  visit_iter.clear();
  visit_covered.clear();
}

void SearchContext::EnsureReachMaps(size_t count) {
  if (reach_maps.size() < count) reach_maps.resize(count);
  frontiers.EnsureSegments(count);
}

}  // namespace banks
