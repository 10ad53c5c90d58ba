#include "search/backward_si.h"

#include <algorithm>
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

SearchStatus BackwardSISearcher::Resume(
    const std::vector<std::vector<NodeId>>& origins, SearchContext* context,
    const StepLimits& limits) const {
  SearchContext::StreamState& ss = context->stream;
  const SliceStart start = BeginResumeSlice(origins, &ss);
  if (start == SliceStart::kAlreadyDone) return SearchStatus::kDone;
  const bool fresh = start == SliceStart::kFresh;

  // Control state persists in the stream state; a resumed slice re-binds
  // the references and lambdas and continues the Dijkstra loop exactly
  // where the previous slice paused.
  SearchResult& result = ss.result;
  SliceTimer timer(ss.elapsed);
  const size_t n = origins.size();

  SearchContext& ctx = *context;
  if (fresh) {
    ctx.BeginQuery(n);
    // reach_maps[i] maps node → best path to the nearest origin of
    // keyword i (BackwardReach records, pooled flat tables in the
    // context).
    ctx.EnsureReachMaps(n);
  }
  auto reach = [&](size_t i) -> FlatHashMap<NodeId, BackwardReach>& {
    return ctx.reach_maps[i];
  };
  // Shared frontier: (dist, node, keyword), smallest first under a
  // *lexicographic* order ("its backward iterator is prioritized only by
  // distance", §4.6 — the node/keyword tie-break never changes which
  // distance pops, it pins WHICH entry does, so the pop order is a
  // property of the frontier contents alone). Pooled min-heap storage on
  // the context, driven by push/pop_heap.
  using QE = SearchContext::SIFrontierEntry;
  std::vector<QE>& frontier = ctx.si_frontier;
  auto qe_after = [](const QE& a, const QE& b) {
    if (a.dist != b.dist) return a.dist > b.dist;
    if (a.node != b.node) return a.node > b.node;
    return a.keyword > b.keyword;
  };
  auto frontier_push = [&](QE e) {
    frontier.push_back(e);
    std::push_heap(frontier.begin(), frontier.end(), qe_after);
  };
  auto frontier_pop = [&]() -> QE {
    std::pop_heap(frontier.begin(), frontier.end(), qe_after);
    QE top = frontier.back();
    frontier.pop_back();
    return top;
  };

  // Count of keywords with finite distance, per node, for completion
  // checks without scanning all n maps (ctx.node_index doubles as the
  // covered-count table for this algorithm).
  FlatHashMap<NodeId, uint32_t>& covered = ctx.node_index;

  OutputHeap& heap = ctx.output_heap;
  uint64_t& steps = ss.steps;
  uint64_t& last_progress = ss.last_progress;  // last step best pending changed
  double& last_top = ss.last_top;              // champion score being aged

  if (fresh) {
    for (uint32_t i = 0; i < n; ++i) {
      for (NodeId o : origins[i]) {
        BackwardReach& r = reach(i)[o];
        if (r.dist == 0 && r.matched == o) continue;  // duplicate origin
        if (r.dist != kInf) continue;
        r = BackwardReach{0.0, kInvalidNode, o, 0, false};
        covered[o]++;
        frontier_push(QE{0.0, o, i});
        result.metrics.nodes_touched++;
      }
    }
  }

  // Builds the candidate into ctx.answer_scratch; returns false when a
  // reach chain is broken (stale path).
  auto build_tree = [&](NodeId root) -> bool {
    std::vector<NodeId>& keyword_nodes = ctx.kw_scratch;
    std::vector<AnswerEdge>& union_edges = ctx.union_edge_scratch;
    keyword_nodes.assign(n, kInvalidNode);
    union_edges.clear();
    for (uint32_t i = 0; i < n; ++i) {
      NodeId cur = root;
      const BackwardReach* it = reach(i).Find(cur);
      if (it == nullptr || it->dist == kInf) return false;
      keyword_nodes[i] = it->matched;
      while (it->next_hop != kInvalidNode) {
        NodeId nxt = it->next_hop;
        const BackwardReach* nit = reach(i).Find(nxt);
        if (nit == nullptr) return false;
        union_edges.push_back(
            AnswerEdge{cur, nxt, static_cast<float>(it->dist - nit->dist)});
        cur = nxt;
        it = nit;
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

  auto try_emit = [&](NodeId v) {
    const uint32_t* cit = covered.Find(v);
    if (cit == nullptr || *cit < n) return;
    if (!build_tree(v) || !ctx.answer_scratch.IsMinimalRooted()) return;
    if (heap.InsertCopy(ctx.answer_scratch)) {
      result.metrics.answers_generated++;
      double top = heap.BestPendingScore();
      if (top > last_top + 1e-15) {
        last_top = top;
        last_progress = steps;
      }
    }
  };

  // Nodes complete at seed time (single-keyword queries; nodes matching
  // every keyword at once) are already answers.
  if (fresh) {
    for (const auto& s : origins) {
      for (NodeId o : s) try_emit(o);
    }
  }

  auto maybe_release = [&](bool force) {
    uint64_t interval = std::max<uint64_t>(1, options_.bound_check_interval);
    if (options_.bound == BoundMode::kTight) {
      interval = std::max<uint64_t>(interval, covered.size() / 8);
    }
    if (!force && (steps % interval) != 0) return;
    // Coarse §4.5 bound: the global frontier minimum lower-bounds every
    // m_i (the paper's "coarser approximation").
    const double m = frontier.empty() ? kInf : frontier.front().dist;
    double h = m * static_cast<double>(n);
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
      // NRA-style (§4.5): partially reached nodes may complete each
      // missing keyword at cost m.
      double best_potential = h;
      for (const auto& entry : covered) {
        double pot = 0;
        for (uint32_t i = 0; i < n; ++i) {
          const BackwardReach* it = reach(i).Find(entry.key);
          pot += std::min(it == nullptr ? kInf : it->dist, m);
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
    if (frontier.empty() || result.answers.size() >= options_.k) break;
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
    if (ctx.page_listener != nullptr && graph_.paged()) {
      // Page-wait protocol (docs/STORAGE.md): before committing to the
      // pop, check that the expansion it would trigger has its adjacency
      // page pooled; on a miss, queue the fetch and detach the quantum
      // instead of blocking the worker on the read. The probe mutates
      // nothing, so the retried slice replays this decision identically.
      // Past the retry cap (e.g. concurrent tasks keep evicting our
      // fetched page) the probe is skipped for one pop and its pins
      // block synchronously — guaranteed progress, identical results.
      if (ctx.stream.page_fault_retries >=
          SearchContext::StreamState::kMaxPageFaultRetries) {
        ctx.stream.page_fault_retries = 0;
      } else {
        const QE& head = frontier.front();
        const BackwardReach* hr = reach(head.keyword).Find(head.node);
        const bool will_expand = hr != nullptr && !hr->settled &&
                                 head.dist <= hr->dist + 1e-12 &&
                                 hr->hops < options_.dmax;
        if (will_expand &&
            !graph_.ProbeInEdges(head.node, ctx.page_listener)) {
          return slice.PageWait();
        }
        ctx.stream.page_fault_retries = 0;
      }
    }
    QE top = frontier_pop();
    BackwardReach& r = reach(top.keyword)[top.node];
    if (r.settled || top.dist > r.dist + 1e-12) continue;  // stale entry
    r.settled = true;
    result.metrics.nodes_explored++;
    steps++;

    if (r.hops < options_.dmax) {
      // Copy what the expansion needs: `r` points into the flat map and
      // is invalidated by the reach(...)[u] insertions below.
      const uint32_t next_hops = r.hops + 1;
      const double base = r.dist;
      const NodeId matched = r.matched;
      PagePin pin;
      std::span<const Edge> in_edges = graph_.InEdges(top.node, &pin);
      // A failed read would expand a partial neighbourhood.
      if (!slice.BookPin(pin)) return slice.IoError();
      for (const Edge& e : in_edges) {
        if (!EdgeAllowed(e)) continue;
        result.metrics.edges_relaxed++;
        NodeId u = e.other;
        double nd = base + e.weight;
        BackwardReach& ru = reach(top.keyword)[u];
        if (ru.settled) continue;
        if (nd < ru.dist - 1e-12) {
          bool was_unreached = ru.dist == kInf;
          ru.dist = nd;
          ru.next_hop = top.node;
          ru.matched = matched;
          ru.hops = next_hops;
          if (was_unreached) {
            covered[u]++;
            result.metrics.nodes_touched++;
          }
          frontier_push(QE{nd, u, top.keyword});
          try_emit(u);
        }
      }
    }
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
