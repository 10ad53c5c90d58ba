#include "search/backward_mi.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "storage/buffer_pool.h"

#include "search/output_heap.h"
#include "search/scoring.h"
#include "search/search_context.h"
#include "search/tree_builder.h"
#include "util/timer.h"

namespace banks {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

SearchStatus BackwardMISearcher::Resume(
    const std::vector<std::vector<NodeId>>& origins, SearchContext* context,
    const StepLimits& limits) const {
  SearchContext::StreamState& ss = context->stream;
  const SliceStart start = BeginResumeSlice(origins, &ss);
  if (start == SliceStart::kAlreadyDone) return SearchStatus::kDone;
  const bool fresh = start == SliceStart::kFresh;

  // Control state persists in the stream state; the scheduler position,
  // iterator frontiers and visit tables persist in the context pools, so
  // a resumed slice re-binds references and continues exactly where the
  // previous slice paused.
  SearchResult& result = ss.result;
  SliceTimer timer(ss.elapsed);
  const size_t n = origins.size();

  SearchContext& ctx = *context;
  if (fresh) ctx.BeginQuery(n);

  // One single-source backward shortest-path iterator per keyword node
  // (§3), structure-of-arrays on the context: iterator i owns reach map
  // ctx.reach_maps[i] and the lazy-deletion frontier heap segment
  // ctx.frontiers.Segment(i). Frequent-keyword queries build hundreds of
  // iterators; on a warm context none of this allocates.
  std::vector<uint32_t>& iter_keyword = ctx.iter_keyword;
  std::vector<NodeId>& iter_origin = ctx.iter_origin;
  if (fresh) {
    for (uint32_t i = 0; i < n; ++i) {
      std::vector<NodeId>& uniq = ctx.uniq_scratch;
      uniq.assign(origins[i].begin(), origins[i].end());
      std::sort(uniq.begin(), uniq.end());
      uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
      for (NodeId o : uniq) {
        iter_keyword.push_back(i);
        iter_origin.push_back(o);
      }
    }
    ctx.EnsureReachMaps(iter_origin.size());
  }
  const uint32_t num_iters = static_cast<uint32_t>(iter_origin.size());

  // Per-iterator lazy-deletion min-heap of (dist, node) over the pooled
  // frontier segments, driven by push/pop_heap with the same comparator
  // the std::priority_queue it replaces used.
  using FrontierEntry = FrontierPool::Entry;
  auto frontier_push = [&](uint32_t it_id, double d, NodeId v) {
    std::vector<FrontierEntry>& seg = ctx.frontiers.Segment(it_id);
    seg.emplace_back(d, v);
    std::push_heap(seg.begin(), seg.end(), std::greater<>());
  };
  /// Skips stale heap entries; returns the next true frontier distance
  /// or +inf when exhausted.
  auto peek_dist = [&](uint32_t it_id) -> double {
    std::vector<FrontierEntry>& seg = ctx.frontiers.Segment(it_id);
    FlatHashMap<NodeId, BackwardReach>& reach = ctx.reach_maps[it_id];
    while (!seg.empty()) {
      auto [d, v] = seg.front();
      const BackwardReach* r = reach.Find(v);
      if (r == nullptr || r->settled || d > r->dist + 1e-12) {
        std::pop_heap(seg.begin(), seg.end(), std::greater<>());
        seg.pop_back();
        continue;
      }
      return d;
    }
    return kInf;
  };

  if (fresh) {
    for (uint32_t i = 0; i < num_iters; ++i) {
      ctx.reach_maps[i][iter_origin[i]] =
          BackwardReach{0.0, kInvalidNode, iter_origin[i], 0, false};
      frontier_push(i, 0.0, iter_origin[i]);
      result.metrics.nodes_touched++;
    }
  }

  // Scheduler: iterator with the nearest next node steps first. (peek
  // dist, iter idx) min-heap over pooled storage; the pair order is
  // total, so the schedule is a property of the heap contents alone.
  using SchedEntry = SearchContext::ScoredState;
  std::vector<SchedEntry>& scheduler = ctx.scheduler;
  auto sched_push = [&](double d, uint32_t it_id) {
    scheduler.emplace_back(d, it_id);
    std::push_heap(scheduler.begin(), scheduler.end(), std::greater<>());
  };
  auto sched_pop = [&]() -> SchedEntry {
    std::pop_heap(scheduler.begin(), scheduler.end(), std::greater<>());
    SchedEntry top = scheduler.back();
    scheduler.pop_back();
    return top;
  };
  if (fresh) {
    for (uint32_t i = 0; i < num_iters; ++i) sched_push(0.0, i);
  }

  // Per-node record of which iterators have visited it. node → dense
  // visit index (stored +1; 0 means absent); the per-keyword best
  // distance / iterator live at visit_index * n + keyword in the flat
  // pools, the covered-keyword count in visit_covered.
  FlatHashMap<NodeId, uint32_t>& visits = ctx.node_index;
  std::vector<double>& visit_dist = ctx.visit_dist;
  std::vector<uint32_t>& visit_iter = ctx.visit_iter;
  std::vector<uint32_t>& visit_covered = ctx.visit_covered;

  OutputHeap& heap = ctx.output_heap;
  uint64_t& steps = ss.steps;
  uint64_t& last_progress = ss.last_progress;  // last step best pending changed
  double& last_top = ss.last_top;              // champion score being aged

  // Frontier minima per keyword for the §4.5 release bound (peek_dist
  // prunes stale entries as it goes; the pruning is deterministic).
  auto frontier_minima = [&](std::vector<double>* m) {
    m->assign(n, kInf);
    for (uint32_t i = 0; i < num_iters; ++i) {
      double d = peek_dist(i);
      uint32_t kw = iter_keyword[i];
      (*m)[kw] = std::min((*m)[kw], d);
    }
  };

  // Builds the candidate into ctx.answer_scratch; returns false when
  // some keyword node is unreachable within the path union.
  auto build_tree = [&](NodeId root, const std::vector<uint32_t>& iter_ids)
      -> bool {
    std::vector<NodeId>& keyword_nodes = ctx.kw_scratch;
    std::vector<AnswerEdge>& union_edges = ctx.union_edge_scratch;
    keyword_nodes.assign(n, kInvalidNode);
    union_edges.clear();
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t it_id = iter_ids[i];
      FlatHashMap<NodeId, BackwardReach>& reach = ctx.reach_maps[it_id];
      keyword_nodes[i] = iter_origin[it_id];
      NodeId cur = root;
      for (;;) {
        const BackwardReach* rit = reach.Find(cur);
        assert(rit != nullptr);
        if (rit->next_hop == kInvalidNode) break;
        NodeId nxt = rit->next_hop;
        double w = rit->dist - reach.Find(nxt)->dist;
        union_edges.push_back(AnswerEdge{cur, nxt, static_cast<float>(w)});
        cur = nxt;
      }
    }
    AnswerTree& tree = ctx.answer_scratch;
    if (!BuildAnswerFromPathUnion(root, keyword_nodes, union_edges,
                                  &ctx.tree_scratch, &tree)) {
      return false;
    }
    ScoreTree(&tree, prestige_, options_.lambda);
    tree.generated_at = timer.ElapsedSeconds();
    tree.explored_at_generation = result.metrics.nodes_explored;
    tree.touched_at_generation = result.metrics.nodes_touched;
    return true;
  };

  // Emits the combination of a fresh visit with the best other origins.
  auto emit_for_visit = [&](NodeId v, uint32_t iter_id) {
    const uint32_t* slot = visits.Find(v);
    if (slot == nullptr || *slot == 0) return;
    const uint32_t vidx = *slot - 1;
    if (visit_covered[vidx] < n) return;
    uint32_t kw = iter_keyword[iter_id];
    std::vector<uint32_t>& ids = ctx.id_scratch;
    ids.assign(n, 0);
    for (uint32_t j = 0; j < n; ++j) {
      ids[j] = (j == kw) ? iter_id : visit_iter[vidx * n + j];
    }
    if (!build_tree(v, ids) || !ctx.answer_scratch.IsMinimalRooted()) return;
    if (heap.InsertCopy(ctx.answer_scratch)) {
      result.metrics.answers_generated++;
      double top = heap.BestPendingScore();
      if (top > last_top + 1e-15) {
        last_top = top;
        last_progress = steps;
      }
    }
  };

  std::vector<double>& minima = ctx.bound_scratch;
  auto maybe_release = [&](bool force) {
    uint64_t interval = std::max<uint64_t>(1, options_.bound_check_interval);
    if (options_.bound == BoundMode::kTight) {
      interval = std::max<uint64_t>(interval, visits.size() / 8);
    }
    if (!force && (steps % interval) != 0) return;
    frontier_minima(&minima);
    double h = 0;
    for (double m : minima) h += m;
    size_t before = result.answers.size();
    if (options_.bound == BoundMode::kImmediate) {
      heap.Drain(options_.k, &result.answers);
    } else if (options_.bound == BoundMode::kLoose) {
      heap.ReleaseWithEdgeBound(h, options_.k, &result.answers);
      if (options_.release_patience &&
          steps - last_progress >= options_.release_patience &&
          result.answers.size() < options_.k && heap.pending_count() > 0) {
        // Staleness drip: the champion has been unbeaten for a while;
        // release a batch of the best pending answers.
        heap.ReleaseBest(std::max<size_t>(1, options_.k / 8), options_.k,
                         &result.answers);
      }
    } else {
      // NRA-style (§4.5): an unseen root costs at least h = Σ m_i; a
      // partially visited root may complete each missing keyword at m_i.
      double best_potential = h;
      for (const auto& entry : visits) {
        const uint32_t vidx = entry.value - 1;
        double pot = 0;
        for (size_t i = 0; i < n; ++i) {
          pot += std::min(visit_dist[vidx * n + i], minima[i]);
        }
        best_potential = std::min(best_potential, pot);
      }
      double ub = ScoreUpperBound(best_potential, 1.0, options_.lambda);
      heap.ReleaseWithScoreBound(ub - 1e-12, options_.k, &result.answers);
    }
    if (result.answers.size() != before) {
      last_progress = steps;
      last_top = heap.BestPendingScore();
    }
    for (size_t i = before; i < result.answers.size(); ++i) {
      result.metrics.generated_times.push_back(result.answers[i].generated_at);
      result.metrics.output_times.push_back(timer.ElapsedSeconds());
    }
  };

  // Slice bounds (streaming pauses): checked between loop iterations
  // only, so a pause never changes what the search computes.
  const SliceGuard slice(limits, &ss, &timer);

  for (;;) {
    if (scheduler.empty() || result.answers.size() >= options_.k) break;
    if (options_.max_nodes_explored &&
        result.metrics.nodes_explored >= options_.max_nodes_explored) {
      result.metrics.budget_exhausted = true;
      break;
    }
    if (options_.max_answers_generated &&
        result.metrics.answers_generated >= options_.max_answers_generated) {
      result.metrics.budget_exhausted = true;
      break;
    }
    if (slice.PauseDue()) return slice.Pause();
    auto [sched_dist, iter_id] = sched_pop();
    double actual = peek_dist(iter_id);
    if (actual == kInf) continue;  // exhausted iterator
    if (actual > sched_dist + 1e-12) {
      sched_push(actual, iter_id);  // stale entry; re-schedule
      continue;
    }

    // Step the iterator: settle its nearest frontier node.
    std::vector<FrontierEntry>& seg = ctx.frontiers.Segment(iter_id);
    auto [d, v] = seg.front();
    std::pop_heap(seg.begin(), seg.end(), std::greater<>());
    seg.pop_back();
    FlatHashMap<NodeId, BackwardReach>& it_reach = ctx.reach_maps[iter_id];
    // Copy the hop count now: the reference into the flat reach map is
    // invalidated by the it_reach[u] insertions below.
    BackwardReach& rv = *it_reach.Find(v);
    rv.settled = true;
    const uint32_t v_hops = rv.hops;
    result.metrics.nodes_explored++;
    steps++;

    // Record the visit and emit any completed combinations.
    uint32_t& vslot = visits[v];
    if (vslot == 0) {
      vslot = static_cast<uint32_t>(visit_covered.size()) + 1;
      visit_dist.insert(visit_dist.end(), n, kInf);
      visit_iter.insert(visit_iter.end(), n, UINT32_MAX);
      visit_covered.push_back(0);
    }
    const uint32_t vidx = vslot - 1;
    uint32_t kw = iter_keyword[iter_id];
    bool was_covered = visit_dist[vidx * n + kw] != kInf;
    if (d < visit_dist[vidx * n + kw]) {
      visit_dist[vidx * n + kw] = d;
      visit_iter[vidx * n + kw] = iter_id;
    }
    if (!was_covered) visit_covered[vidx]++;
    emit_for_visit(v, iter_id);

    // Expand backward unless depth-capped.
    if (v_hops < options_.dmax) {
      uint32_t next_hops = v_hops + 1;
      PagePin pin;
      std::span<const Edge> in_edges = graph_.InEdges(v, &pin);
      // A failed read would expand a partial neighbourhood.
      if (!slice.BookPin(pin)) return slice.IoError();
      for (const Edge& e : in_edges) {
        if (!EdgeAllowed(e)) continue;
        result.metrics.edges_relaxed++;
        NodeId u = e.other;
        BackwardReach& ru = it_reach[u];
        if (ru.settled) continue;
        double nd = d + e.weight;
        if (nd < ru.dist - 1e-12) {
          if (ru.dist == kInf) result.metrics.nodes_touched++;
          ru.dist = nd;
          ru.next_hop = v;
          ru.hops = next_hops;
          frontier_push(iter_id, nd, u);
        }
      }
    }
    double nxt = peek_dist(iter_id);
    if (nxt != kInf) sched_push(nxt, iter_id);

    maybe_release(false);
  }

  maybe_release(true);
  if (result.answers.size() < options_.k) {
    size_t before = result.answers.size();
    heap.Drain(options_.k, &result.answers);
    for (size_t i = before; i < result.answers.size(); ++i) {
      result.metrics.generated_times.push_back(result.answers[i].generated_at);
      result.metrics.output_times.push_back(timer.ElapsedSeconds());
    }
  }
  return FinishResume(&ss, timer);
}

}  // namespace banks
