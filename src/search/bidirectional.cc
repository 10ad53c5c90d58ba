#include "search/bidirectional.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "storage/buffer_pool.h"

#include "search/output_heap.h"
#include "search/scoring.h"
#include "search/search_context.h"
#include "search/tree_builder.h"
#include "util/indexed_heap.h"
#include "util/timer.h"

namespace banks {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr uint32_t kNoState = UINT32_MAX;

}  // namespace

SearchStatus BidirectionalSearcher::Resume(
    const std::vector<std::vector<NodeId>>& origins, SearchContext* context,
    const StepLimits& limits) const {
  SearchContext::StreamState& ss = context->stream;
  const SliceStart start = BeginResumeSlice(origins, &ss);
  if (start == SliceStart::kAlreadyDone) return SearchStatus::kDone;
  const bool fresh = start == SliceStart::kFresh;

  // The whole control state of the search lives in the stream state;
  // everything below it (frontiers, per-state arrays, output buffer)
  // lives in the context pools. A resumed slice re-binds the references
  // and lambdas — cheap — and continues the loop exactly where the
  // previous slice paused (always between two complete expansions).
  SearchResult& result = ss.result;
  SliceTimer timer(ss.elapsed);
  const uint32_t n = static_cast<uint32_t>(origins.size());

  // ---- State storage (pooled in the reusable context) ---------------------
  // Per-state bookkeeping is structure-of-arrays: parallel flat vectors
  // indexed by state index (discovery order). The explore loop below
  // only ever touches the arrays it reads — popping a node reads
  // node/depth/flags without dragging the materialization bookkeeping
  // through the cache.
  SearchContext& ctx = *context;
  if (fresh) ctx.BeginQuery(n);
  std::vector<NodeId>& node_of = ctx.node;
  std::vector<uint32_t>& depth_of = ctx.depth;
  std::vector<uint8_t>& flags_of = ctx.state_flags;
  std::vector<double>& last_eraw = ctx.last_eraw;
  std::vector<double>& dist = ctx.dist;        // num_states() * n
  std::vector<uint32_t>& sp = ctx.sp;          // next state toward keyword
  std::vector<double>& act = ctx.act;          // per-keyword activation
  std::vector<double>& act_sum = ctx.act_sum;  // per-state total (queue key)

  auto get_state = [&](NodeId v, uint32_t depth) -> uint32_t {
    uint32_t& slot = ctx.node_index[v];
    if (slot != 0) return slot - 1;  // stored index + 1; 0 means new
    uint32_t idx = static_cast<uint32_t>(node_of.size());
    slot = idx + 1;
    node_of.push_back(v);
    depth_of.push_back(depth);
    flags_of.push_back(0);
    last_eraw.push_back(kInf);
    ctx.marked_time.push_back(0);
    ctx.marked_explored.push_back(0);
    ctx.marked_touched.push_back(0);
    ctx.parents.emplace_back();
    ctx.children.emplace_back();
    dist.insert(dist.end(), n, kInf);
    sp.insert(sp.end(), n, kNoState);
    act.insert(act.end(), n, 0.0);
    act_sum.push_back(0.0);
    return idx;
  };

  auto d_at = [&](uint32_t s, uint32_t i) -> double& { return dist[s * n + i]; };
  auto sp_at = [&](uint32_t s, uint32_t i) -> uint32_t& { return sp[s * n + i]; };
  auto a_at = [&](uint32_t s, uint32_t i) -> double& { return act[s * n + i]; };

  // ---- Queues and frontier bookkeeping -----------------------------------
  // Q_in/Q_out pop under the (activation, NodeId) total order.
  IndexedHeap<ActPriority>& qin = ctx.qin;
  IndexedHeap<ActPriority>& qout = ctx.qout;
  // Per-keyword min-dist over frontier states (§4.5 bound m_i).
  std::vector<IndexedHeap<double, std::greater<double>>>& min_dist =
      ctx.min_dist;
  // Min-depth over each queue (fallback bound when no distance known).
  IndexedHeap<uint32_t, std::greater<uint32_t>>& qin_depth = ctx.qin_depth;
  IndexedHeap<uint32_t, std::greater<uint32_t>>& qout_depth = ctx.qout_depth;

  auto pri_of = [&](uint32_t s) {
    return ActPriority{act_sum[s], node_of[s]};
  };

  // Query-invariant aggregate, precomputed at graph build time (§4.5
  // depth floor); recomputing it here would scan every edge per query.
  const double min_edge_weight = graph_.MinEdgeWeight();

  // The per-keyword frontier-minimum heaps only feed the tight bound;
  // maintaining them costs a heap update per (relaxation × keyword), so
  // loose/immediate modes skip them (their releases are driven by the
  // edge-bound-with-drip machinery, see maybe_release).
  const bool track_frontier_minima = options_.bound == BoundMode::kTight;
  auto frontier_dist_update = [&](uint32_t s, uint32_t i) {
    if (!track_frontier_minima) return;
    if (qin.Contains(s) || qout.Contains(s)) {
      if (d_at(s, i) != kInf) min_dist[i].Update(s, d_at(s, i));
    }
  };
  auto frontier_enter = [&](uint32_t s) {
    if (!track_frontier_minima) return;
    for (uint32_t i = 0; i < n; ++i) {
      if (d_at(s, i) != kInf) min_dist[i].Update(s, d_at(s, i));
    }
  };
  auto frontier_leave = [&](uint32_t s) {
    if (!track_frontier_minima) return;
    if (qin.Contains(s) || qout.Contains(s)) return;  // still frontier
    for (uint32_t i = 0; i < n; ++i) {
      if (min_dist[i].Contains(s)) min_dist[i].Erase(s);
    }
  };

  OutputHeap& heap = ctx.output_heap;
  uint64_t& steps = ss.steps;
  uint64_t& last_progress = ss.last_progress;  // last step best pending changed
  double& last_top = ss.last_top;              // champion score being aged

  // ---- Emission -----------------------------------------------------------
  auto is_complete = [&](uint32_t s) {
    for (uint32_t i = 0; i < n; ++i) {
      if (d_at(s, i) == kInf) return false;
    }
    return true;
  };
  auto eraw_of = [&](uint32_t s) {
    double eraw = 0;
    for (uint32_t i = 0; i < n; ++i) eraw += d_at(s, i);
    return eraw;
  };

  // Materializing a tree (union Dijkstra + scoring + signature) is two
  // orders of magnitude more expensive than a distance relaxation, and
  // Attach can improve a completed root thousands of times. emit() only
  // *marks* the root; materialize_dirty() builds the marked roots' trees
  // in one batch at the next release check, once their distances have
  // settled.
  std::vector<uint32_t>& dirty_roots = ctx.dirty_roots;

  // Top-k eraw watermark: a root whose raw edge score is far beyond the
  // k-th best generated answer cannot enter the top-k (prestige can
  // reorder scores only within a bounded factor; the 2(1+w) slack is
  // generous for λ = 0.2). Prunes the long tail of late completions.
  // Pooled max-heap of the k smallest eraws seen.
  std::vector<double>& best_eraws = ctx.best_eraws;
  auto beyond_watermark = [&](double eraw) {
    return best_eraws.size() >= options_.k &&
           eraw > 2.0 * (1.0 + best_eraws.front());
  };

  auto emit = [&](uint32_t s) {
    if (!is_complete(s)) return;
    const double eraw = eraw_of(s);
    // Re-materialize only on a >=2% improvement: micro-refinements do
    // not change rank but tree construction dominates per-answer cost.
    if (eraw >= last_eraw[s] * 0.98 - 1e-12) return;
    if (beyond_watermark(eraw)) return;
    if (!(flags_of[s] & kStateDirty)) {
      flags_of[s] |= kStateDirty;
      ctx.marked_time[s] = timer.ElapsedSeconds();
      ctx.marked_explored[s] = result.metrics.nodes_explored;
      ctx.marked_touched[s] = result.metrics.nodes_touched;
      dirty_roots.push_back(s);
    }
  };

  // Builds the tree of marked root `s` into ctx.answer_scratch from the
  // settled sp chains; false when a chain is stale (cycle or broken).
  auto build_tree = [&](uint32_t s) -> bool {
    // Every keyword leaves through one first hop: the tree's root would
    // have one child and match no keyword (an origin's sp stays
    // kNoState), so IsMinimalRooted rejects it. Skip the build.
    const uint32_t first_hop = sp_at(s, 0);
    if (first_hop != kNoState) {
      uint32_t i = 1;
      while (i < n && sp_at(s, i) == first_hop) ++i;
      if (i == n) return false;
    }
    std::vector<NodeId>& keyword_nodes = ctx.kw_scratch;
    std::vector<AnswerEdge>& union_edges = ctx.union_edge_scratch;
    keyword_nodes.assign(n, kInvalidNode);
    union_edges.clear();
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t cur = s;
      size_t guard = 0;
      while (sp_at(cur, i) != kNoState) {
        uint32_t nxt = sp_at(cur, i);
        union_edges.push_back(AnswerEdge{
            node_of[cur], node_of[nxt],
            static_cast<float>(d_at(cur, i) - d_at(nxt, i))});
        cur = nxt;
        if (++guard > node_of.size()) return false;  // stale cycle
      }
      if (d_at(cur, i) != 0) return false;  // broken chain
      keyword_nodes[i] = node_of[cur];
    }
    AnswerTree& tree = ctx.answer_scratch;
    if (!BuildAnswerFromPathUnion(node_of[s], keyword_nodes, union_edges,
                                  &ctx.tree_scratch, &tree) ||
        !tree.IsMinimalRooted()) {
      return false;
    }
    ScoreTree(&tree, prestige_, options_.lambda);
    tree.generated_at = ctx.marked_time[s];
    tree.explored_at_generation = ctx.marked_explored[s];
    tree.touched_at_generation = ctx.marked_touched[s];
    return true;
  };

  // Materializes the batch of marked roots in mark order. Per root the
  // guards run in a fixed order: improvement pre-check, watermark, then
  // the last_eraw commit (a stale chain still commits, so the root is
  // not retried until its distances improve again), then the build.
  auto materialize_dirty = [&] {
    for (const uint32_t s : dirty_roots) {
      flags_of[s] &= static_cast<uint8_t>(~kStateDirty);
      if (!is_complete(s)) continue;
      const double eraw = eraw_of(s);
      if (eraw >= last_eraw[s] * 0.98 - 1e-12) continue;
      if (beyond_watermark(eraw)) continue;
      last_eraw[s] = eraw;
      if (!build_tree(s)) continue;
      if (heap.InsertCopy(ctx.answer_scratch)) {
        result.metrics.answers_generated++;
        best_eraws.push_back(eraw);
        std::push_heap(best_eraws.begin(), best_eraws.end());
        if (best_eraws.size() > options_.k) {
          std::pop_heap(best_eraws.begin(), best_eraws.end());
          best_eraws.pop_back();
        }
        double top = heap.BestPendingScore();
        if (top > last_top + 1e-15) {
          last_top = top;
          last_progress = steps;
        }
      }
    }
    dirty_roots.clear();
  };

  // ---- Attach: best-first propagation of distance improvements (§4.2.1) --
  // The scratch queue lives on the context (drained to empty before each
  // return, so reuse is safe) — Attach runs once per relaxation and a
  // fresh heap allocation per call would dominate small queries.
  auto attach = [&](uint32_t s0, uint32_t i) {
    auto& pq = ctx.attach_queue;
    pq.emplace(d_at(s0, i), s0);
    while (!pq.empty()) {
      auto [d0, u] = pq.top();
      pq.pop();
      if (d0 > d_at(u, i) + 1e-12) continue;  // stale
      ctx.edge_lists.ForEach(ctx.parents[u], [&](uint32_t x, float w) {
        result.metrics.propagation_steps++;
        double nd = d0 + w;
        if (nd < d_at(x, i) - 1e-12) {
          d_at(x, i) = nd;
          sp_at(x, i) = u;
          frontier_dist_update(x, i);
          emit(x);
          pq.emplace(nd, x);
        }
      });
    }
  };

  // ---- Activate: best-first propagation of activation increases (§4.3) ---
  auto queue_priority_update = [&](uint32_t s) {
    if (qin.Contains(s)) qin.Update(s, pri_of(s));
    if (qout.Contains(s)) qout.Update(s, pri_of(s));
  };

  auto raise_activation = [&](uint32_t s, uint32_t i, double value) -> bool {
    if (options_.combine == ActivationCombine::kSum) {
      act_sum[s] += value;
      a_at(s, i) += value;
      queue_priority_update(s);
      return false;  // additive mode does not re-propagate
    }
    // Sub-0.1% increases are absorbed without re-propagation: activation
    // is a *priority* signal, and micro-cascades through the explored
    // region dominate running time while never changing pop order.
    if (value <= a_at(s, i) * 1.001 + 1e-18) return false;
    act_sum[s] += value - a_at(s, i);
    a_at(s, i) = value;
    queue_priority_update(s);
    return true;
  };

  auto activate = [&](uint32_t s0, uint32_t i) {
    if (options_.combine == ActivationCombine::kSum) return;
    auto& pq = ctx.activate_queue;  // max-heap: strongest activation first
    pq.emplace(a_at(s0, i), s0);
    while (!pq.empty()) {
      auto [a0, v] = pq.top();
      pq.pop();
      if (a0 < a_at(v, i) * (1 - 1e-12)) continue;  // stale
      const NodeId v_node = node_of[v];
      double in_norm = graph_.InInverseWeightSum(v_node);
      if (in_norm > 0) {
        ctx.edge_lists.ForEach(ctx.parents[v], [&](uint32_t x, float w) {
          result.metrics.propagation_steps++;
          double recv = options_.mu * a0 * (1.0 / w) / in_norm;
          if (raise_activation(x, i, recv)) pq.emplace(recv, x);
        });
      }
      double out_norm = graph_.OutInverseWeightSum(v_node);
      if (out_norm > 0) {
        ctx.edge_lists.ForEach(ctx.children[v], [&](uint32_t y, float w) {
          result.metrics.propagation_steps++;
          double recv = options_.mu * a0 * (1.0 / w) / out_norm;
          if (raise_activation(y, i, recv)) pq.emplace(recv, y);
        });
      }
    }
  };

  // ---- ExploreEdge (Figure 3): edge (u,v), i.e. u→v in the graph ----------
  // `incoming_context` is true when called while expanding v from Q_in
  // (activation then spreads v→u); false when expanding u from Q_out
  // (activation spreads u→v). Each state expands at most once per
  // direction (kStateExpanded*), so this is the edge's one spread in
  // its direction, and it is already recorded iff the other endpoint
  // expanded the other way before. The callers skip parallel edges.
  auto explore_edge = [&](uint32_t su, uint32_t sv, float w,
                          bool incoming_context) {
    const bool recorded = incoming_context
                              ? (flags_of[su] & kStateExpandedOut) != 0
                              : (flags_of[sv] & kStateExpandedIn) != 0;
    if (!recorded) {
      ctx.edge_lists.Append(&ctx.parents[sv], su, w);
      ctx.edge_lists.Append(&ctx.children[su], sv, w);
      // Relax u's per-keyword distances through v ("if u has a better
      // path to t_i via v").
      for (uint32_t i = 0; i < n; ++i) {
        if (d_at(sv, i) == kInf) continue;
        double nd = d_at(sv, i) + w;
        if (nd < d_at(su, i) - 1e-12) {
          d_at(su, i) = nd;
          sp_at(su, i) = sv;
          frontier_dist_update(su, i);
          emit(su);
          attach(su, i);
        }
      }
    }

    // Activation flows from the expanded endpoint to the other one.
    const uint32_t from = incoming_context ? sv : su;
    const uint32_t to = incoming_context ? su : sv;
    double norm = incoming_context ? graph_.InInverseWeightSum(node_of[from])
                                   : graph_.OutInverseWeightSum(node_of[from]);
    if (norm > 0) {
      for (uint32_t i = 0; i < n; ++i) {
        if (a_at(from, i) <= 0) continue;
        double recv = options_.mu * a_at(from, i) * (1.0 / w) / norm;
        if (raise_activation(to, i, recv)) activate(to, i);
      }
    }
  };

  // ---- Seeding (Eq. 1): a_{u,i} = prestige(u) / |S_i| ---------------------
  if (fresh) {
    for (uint32_t i = 0; i < n; ++i) {
      std::vector<NodeId>& uniq = ctx.uniq_scratch;
      uniq.assign(origins[i].begin(), origins[i].end());
      std::sort(uniq.begin(), uniq.end());
      uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
      const double denom = static_cast<double>(uniq.size());
      for (NodeId o : uniq) {
        uint32_t s = get_state(o, 0);
        d_at(s, i) = 0;
        double prestige = prestige_.empty() ? 1.0 : prestige_[o];
        a_at(s, i) = std::max(a_at(s, i), prestige / denom);
      }
    }
    // Recompute totals exactly (seed arithmetic above avoids double counts).
    for (uint32_t s = 0; s < node_of.size(); ++s) {
      double total = 0;
      for (uint32_t i = 0; i < n; ++i) total += a_at(s, i);
      act_sum[s] = total;
      qin.Push(s, pri_of(s));
      qin_depth.Push(s, depth_of[s]);
      result.metrics.nodes_touched++;
      frontier_enter(s);
    }
  }

  // ---- §4.5 release bound -------------------------------------------------
  auto keyword_floor = [&](uint32_t i) -> double {
    const double m = min_dist[i].empty() ? kInf : min_dist[i].TopPriority();
    double depth_floor = kInf;
    if (!qin_depth.empty()) {
      depth_floor = (qin_depth.TopPriority() + 1) * min_edge_weight;
    } else if (!qout_depth.empty()) {
      depth_floor = (qout_depth.TopPriority() + 1) * min_edge_weight;
    }
    return std::min(m, depth_floor);
  };

  auto maybe_release = [&](bool force) {
    // The tight bound's NRA scan is O(states); amortize it. Loose and
    // immediate releases are cheap and run at the base interval.
    uint64_t interval = std::max<uint64_t>(1, options_.bound_check_interval);
    if (options_.bound == BoundMode::kTight) {
      interval = std::max<uint64_t>(interval, node_of.size() / 8);
    }
    if (!force && (steps % interval) != 0) return;
    materialize_dirty();
    std::vector<double>& m = ctx.bound_scratch;
    m.assign(n, 0.0);
    double h = 0;
    for (uint32_t i = 0; i < n; ++i) {
      m[i] = keyword_floor(i);
      h += m[i];
    }
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
      // NRA-style: unseen roots are bounded by h; every partially seen
      // node may complete with m_i for its missing keywords.
      double best_potential_eraw = h;
      const size_t num_states = node_of.size();
      for (size_t s = 0; s < num_states; ++s) {
        double pot = 0;
        for (uint32_t i = 0; i < n; ++i) pot += std::min(dist[s * n + i], m[i]);
        best_potential_eraw = std::min(best_potential_eraw, pot);
      }
      double ub = ScoreUpperBound(h, 1.0, options_.lambda);
      ub = std::max(
          ub, ScoreUpperBound(best_potential_eraw, 1.0, options_.lambda));
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

  // Slice bounds (streaming pauses): checked only between complete
  // expansions — the popped node's Attach/Activate cascades have
  // drained — so a pause never changes what the search computes.
  const SliceGuard slice(limits, &ss, &timer);

  // ---- Main loop (Figure 3 lines 4–23) ------------------------------------
  // Pop the best of the Q_in and Q_out tops under the (activation,
  // NodeId) total order; on an exact tie — only possible when one node
  // is in both — Q_in wins.
  for (;;) {
    if (qin.empty() && qout.empty()) break;
    if (result.answers.size() >= options_.k) break;
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

    const bool take_in =
        qout.empty() ||
        (!qin.empty() && !(qin.TopPriority() < qout.TopPriority()));

    if (ctx.page_listener != nullptr && graph_.paged()) {
      // Page-wait protocol (docs/STORAGE.md): before committing to the
      // pop, check that the expansion it would trigger has its adjacency
      // page pooled; on a miss, queue the fetch and detach the quantum
      // instead of blocking the worker on the read. The probe mutates
      // nothing, so the retried slice replays this decision identically.
      // Past the retry cap (e.g. concurrent tasks keep evicting our
      // fetched page) the probe is skipped for one pop and its pin
      // blocks synchronously — guaranteed progress, identical results.
      if (ss.page_fault_retries >=
          SearchContext::StreamState::kMaxPageFaultRetries) {
        ss.page_fault_retries = 0;
      } else {
        const uint32_t s = take_in ? qin.Top() : qout.Top();
        if (depth_of[s] < options_.dmax) {
          const bool ready =
              take_in ? graph_.ProbeInEdges(node_of[s], ctx.page_listener)
                      : graph_.ProbeOutEdges(node_of[s], ctx.page_listener);
          if (!ready) return slice.PageWait();
        }
        ss.page_fault_retries = 0;
      }
    }

    // NOTE: get_state() may reallocate the per-state arrays; never hold a
    // reference into them across it — copy what we need into locals.
    if (take_in) {
      uint32_t v = qin.Pop();
      if (qin_depth.Contains(v)) qin_depth.Erase(v);
      frontier_leave(v);
      flags_of[v] |= kStatePoppedIn;
      const NodeId v_node = node_of[v];
      const uint32_t v_depth = depth_of[v];
      result.metrics.nodes_explored++;
      steps++;
      emit(v);
      if (v_depth < options_.dmax) {
        PagePin pin;
        std::span<const Edge> in_edges = graph_.InEdges(v_node, &pin);
        if (!slice.BookPin(pin)) return slice.IoError();
        flags_of[v] |= kStateExpandedIn;
        NodeId prev = kInvalidNode;
        for (const Edge& e : in_edges) {
          if (!EdgeAllowed(e)) continue;
          result.metrics.edges_relaxed++;
          // Parallel edges are adjacent (canonical (other, dir, weight)
          // run order): the first allowed one stands for the pair.
          assert(prev == kInvalidNode || e.other >= prev);
          if (e.other == prev) continue;
          prev = e.other;
          uint32_t u = get_state(e.other, v_depth + 1);
          explore_edge(u, v, e.weight, /*incoming_context=*/true);
          if (!(flags_of[u] & kStatePoppedIn) && !qin.Contains(u)) {
            qin.Push(u, pri_of(u));
            qin_depth.Push(u, depth_of[u]);
            result.metrics.nodes_touched++;
            frontier_enter(u);
          }
        }
      }
      if (!(flags_of[v] & kStateEverInQout)) {
        flags_of[v] |= kStateEverInQout;
        qout.Push(v, pri_of(v));
        qout_depth.Push(v, v_depth);
        result.metrics.nodes_touched++;
        frontier_enter(v);
      }
    } else {
      uint32_t u = qout.Pop();
      if (qout_depth.Contains(u)) qout_depth.Erase(u);
      frontier_leave(u);
      const NodeId u_node = node_of[u];
      const uint32_t u_depth = depth_of[u];
      result.metrics.nodes_explored++;
      steps++;
      emit(u);
      if (u_depth < options_.dmax) {
        PagePin pin;
        std::span<const Edge> out_edges = graph_.OutEdges(u_node, &pin);
        if (!slice.BookPin(pin)) return slice.IoError();
        flags_of[u] |= kStateExpandedOut;
        NodeId prev = kInvalidNode;
        for (const Edge& e : out_edges) {
          if (!EdgeAllowed(e)) continue;
          result.metrics.edges_relaxed++;
          assert(prev == kInvalidNode || e.other >= prev);
          if (e.other == prev) continue;  // parallel edge, as above
          prev = e.other;
          uint32_t v = get_state(e.other, u_depth + 1);
          explore_edge(u, v, e.weight, /*incoming_context=*/false);
          if (!(flags_of[v] & kStateEverInQout)) {
            flags_of[v] |= kStateEverInQout;
            qout.Push(v, pri_of(v));
            qout_depth.Push(v, depth_of[v]);
            result.metrics.nodes_touched++;
            frontier_enter(v);
          }
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
