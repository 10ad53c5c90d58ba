#include "graph/graph_delta.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "storage/buffer_pool.h"

namespace banks {
namespace {

// Canonical within-run order: GraphBuilder::Build sorts the combined
// edge list by (u, v, dir, weight) and counting-sorts into both CSR
// directions, so restricted to one node's run — out or in — the order
// is (other, dir, weight). Rebuilt runs sort with the same comparator
// to stay value-identical to a fresh build.
bool RunLess(const Edge& a, const Edge& b) {
  if (a.other != b.other) return a.other < b.other;
  if (a.dir != b.dir) return a.dir < b.dir;
  return a.weight < b.weight;
}

// Forward edges incident to one endpoint, accumulated from the batch.
using EndpointEdges =
    std::unordered_map<NodeId, std::vector<std::pair<NodeId, float>>>;

}  // namespace

Graph ApplyGraphDelta(std::shared_ptr<const Graph> base,
                      const GraphDelta& delta,
                      const GraphBuildOptions& options) {
  assert(base != nullptr);
  const Graph& prev = *base;
  const size_t n_old = prev.num_nodes();
  const size_t n = n_old + delta.new_node_types.size();

  Graph g;
  // Flatten: the overlay points at the ultimate non-overlay graph, so a
  // read is at most one delegation deep at any epoch. The predecessor's
  // delta storage is copied below, which keeps runs rebuilt at earlier
  // epochs resolvable without chaining through it.
  g.base_ = prev.base_ != nullptr ? prev.base_ : base;

  // ---- Per-node scalars: copy, extend, then patch the changed ones ----
  g.fwd_indegree_ = prev.fwd_indegree_;
  g.fwd_indegree_.resize(n, 0);
  for (const GraphDelta::NewEdge& e : delta.new_edges) {
    assert(e.u < n && e.v < n);
    assert(e.weight > 0);
    g.fwd_indegree_[e.v]++;
  }
  g.in_inv_weight_sum_ = prev.in_inv_weight_sum_;
  g.in_inv_weight_sum_.resize(n, 0.0);
  g.out_inv_weight_sum_ = prev.out_inv_weight_sum_;
  g.out_inv_weight_sum_.resize(n, 0.0);
  g.type_names_ = prev.type_names_;
  g.type_names_.insert(g.type_names_.end(), delta.new_type_names.begin(),
                       delta.new_type_names.end());
  // Same materialization rule as GraphBuilder: the types array exists
  // only once any node is typed (Graph::Type reads kUntypedNode from an
  // empty array either way).
  bool any_typed = !prev.node_types_.empty();
  for (NodeType t : delta.new_node_types) {
    any_typed = any_typed || t != kUntypedNode;
  }
  if (any_typed) {
    g.node_types_.assign(n, kUntypedNode);
    for (NodeId v = 0; v < n_old; ++v) g.node_types_[v] = prev.Type(v);
    for (size_t i = 0; i < delta.new_node_types.size(); ++i) {
      g.node_types_[n_old + i] = delta.new_node_types[i];
    }
  }

  // ---- Delta run storage, carried over from the predecessor ----
  if (prev.base_ != nullptr) {
    g.delta_out_edges_ = prev.delta_out_edges_;
    g.delta_in_edges_ = prev.delta_in_edges_;
    g.delta_out_start_ = prev.delta_out_start_;
    g.delta_in_start_ = prev.delta_in_start_;
  } else {
    g.delta_out_start_.assign(n_old, Graph::kNoDeltaRun);
    g.delta_in_start_.assign(n_old, Graph::kNoDeltaRun);
  }
  g.delta_out_start_.resize(n, Graph::kNoDeltaRun);
  g.delta_in_start_.resize(n, Graph::kNoDeltaRun);

  // ---- Which runs change ----
  // Out runs: new-edge sources gain a forward out-edge; with derived
  // backward edges, new-edge targets gain a backward out-edge AND their
  // existing backward out-edges reweight (the weight carries
  // log2(1 + indegree(target)), which just changed).
  // In runs: new-edge targets gain a forward in-edge; new-edge sources
  // gain a backward in-edge; and every forward *predecessor* u of a
  // target v holds the backward edge v→u in its in run, whose weight
  // also carries v's changed in-degree.
  std::vector<uint8_t> rebuild_out(n, 0);
  std::vector<uint8_t> rebuild_in(n, 0);
  EndpointEdges new_out;  // u -> (v, w) forward edges leaving u
  EndpointEdges new_in;   // v -> (u, w) forward edges entering v
  std::vector<NodeId> indeg_changed;
  for (const GraphDelta::NewEdge& e : delta.new_edges) {
    // Float-cast first: GraphBuilder::AddEdge stores float weights, and
    // every derived quantity (backward weights, inverse-weight sums,
    // MinEdgeWeight) must start from the identical float value.
    const float wf = static_cast<float>(e.weight);
    new_out[e.u].emplace_back(e.v, wf);
    new_in[e.v].emplace_back(e.u, wf);
    rebuild_out[e.u] = 1;
    rebuild_in[e.v] = 1;
    if (options.add_backward_edges) {
      rebuild_out[e.v] = 1;
      rebuild_in[e.u] = 1;
      indeg_changed.push_back(e.v);
    }
  }
  if (options.add_backward_edges) {
    std::sort(indeg_changed.begin(), indeg_changed.end());
    indeg_changed.erase(
        std::unique(indeg_changed.begin(), indeg_changed.end()),
        indeg_changed.end());
    for (NodeId v : indeg_changed) {
      if (v >= n_old) continue;  // a brand-new node has no predecessors yet
      PagePin pin;
      for (const Edge& e : prev.InEdges(v, &pin)) {
        if (e.dir == EdgeDir::kForward) rebuild_in[e.other] = 1;
      }
      assert(!pin.failed());  // writer path: IO failure corrupts the epoch
    }
  }

  // ---- Delta-run offsets must stay 32-bit ----
  // A rebuilt run holds the node's whole effective adjacency: its
  // previous runs plus this batch's forward edges and their derived
  // backward mirrors. Checked before any run is built, so an oversized
  // batch is rejected while the caller has published nothing.
  const auto added = [](const EndpointEdges& edges, NodeId v) -> uint64_t {
    auto it = edges.find(v);
    return it == edges.end() ? 0 : it->second.size();
  };
  uint64_t out_growth = 0;
  uint64_t in_growth = 0;
  for (NodeId v = 0; v < n; ++v) {
    const uint64_t mirrored_out =
        options.add_backward_edges ? added(new_in, v) : 0;
    const uint64_t mirrored_in =
        options.add_backward_edges ? added(new_out, v) : 0;
    if (rebuild_out[v]) {
      out_growth += (v < n_old ? prev.OutDegree(v) : 0) + added(new_out, v) +
                    mirrored_out;
    }
    if (rebuild_in[v]) {
      in_growth += (v < n_old ? prev.InDegree(v) : 0) + added(new_in, v) +
                   mirrored_in;
    }
  }
  if (g.delta_out_edges_.size() + out_growth > Graph::kNoDeltaRun ||
      g.delta_in_edges_.size() + in_growth > Graph::kNoDeltaRun) {
    throw std::invalid_argument(
        "ApplyGraphDelta: delta runs would overflow 32-bit offsets");
  }

  // ---- Rebuild each changed run in canonical order ----
  // A run is rebuilt from scratch out of the *effective* state: the
  // predecessor's forward edges (read mode-agnostically — base CSR,
  // paged pages, or an earlier overlay's delta run) plus this batch's,
  // with every backward weight recomputed from the new in-degrees
  // exactly the way Build computes it (double math over float inputs,
  // then one float cast).
  const auto backward_weight = [&](NodeId target, float wf) {
    double w = static_cast<double>(wf) *
               std::log2(1.0 + g.fwd_indegree_[target]);
    w = std::max(w, options.min_backward_weight);
    return static_cast<float>(w);
  };
  std::vector<size_t> out_run_len(n, 0);
  std::vector<size_t> in_run_len(n, 0);
  std::vector<Edge> run;
  for (NodeId v = 0; v < n; ++v) {
    if (rebuild_out[v]) {
      run.clear();
      if (v < n_old) {
        PagePin pin;
        for (const Edge& e : prev.OutEdges(v, &pin)) {
          if (e.dir == EdgeDir::kForward) run.push_back(e);
        }
        assert(!pin.failed());
      }
      if (auto it = new_out.find(v); it != new_out.end()) {
        for (const auto& [t, wf] : it->second) {
          run.push_back(Edge{t, wf, EdgeDir::kForward});
        }
      }
      if (options.add_backward_edges) {
        // Backward out-edges of v mirror the forward edges *into* v,
        // weighted by v's (new) in-degree.
        if (v < n_old) {
          PagePin pin;
          for (const Edge& e : prev.InEdges(v, &pin)) {
            if (e.dir == EdgeDir::kForward) {
              run.push_back(
                  Edge{e.other, backward_weight(v, e.weight),
                       EdgeDir::kBackward});
            }
          }
          assert(!pin.failed());
        }
        if (auto it = new_in.find(v); it != new_in.end()) {
          for (const auto& [s, wf] : it->second) {
            run.push_back(Edge{s, backward_weight(v, wf),
                               EdgeDir::kBackward});
          }
        }
      }
      std::sort(run.begin(), run.end(), RunLess);
      g.delta_out_start_[v] =
          static_cast<uint32_t>(g.delta_out_edges_.size());
      g.delta_out_edges_.insert(g.delta_out_edges_.end(), run.begin(),
                                run.end());
      out_run_len[v] = run.size();
      // Recompute the spreading normalizer in run order, matching
      // Build's CSR-order float accumulation bit-for-bit.
      double sum = 0.0;
      for (const Edge& e : run) sum += 1.0 / e.weight;
      g.out_inv_weight_sum_[v] = sum;
    }
    if (rebuild_in[v]) {
      run.clear();
      if (v < n_old) {
        PagePin pin;
        for (const Edge& e : prev.InEdges(v, &pin)) {
          if (e.dir == EdgeDir::kForward) run.push_back(e);
        }
        assert(!pin.failed());
      }
      if (auto it = new_in.find(v); it != new_in.end()) {
        for (const auto& [s, wf] : it->second) {
          run.push_back(Edge{s, wf, EdgeDir::kForward});
        }
      }
      if (options.add_backward_edges) {
        // Backward in-edges of v mirror the forward edges *leaving* v
        // (y→v derived from v→y), weighted by each target y's new
        // in-degree.
        if (v < n_old) {
          PagePin pin;
          for (const Edge& e : prev.OutEdges(v, &pin)) {
            if (e.dir == EdgeDir::kForward) {
              run.push_back(
                  Edge{e.other, backward_weight(e.other, e.weight),
                       EdgeDir::kBackward});
            }
          }
          assert(!pin.failed());
        }
        if (auto it = new_out.find(v); it != new_out.end()) {
          for (const auto& [t, wf] : it->second) {
            run.push_back(Edge{t, backward_weight(t, wf),
                               EdgeDir::kBackward});
          }
        }
      }
      std::sort(run.begin(), run.end(), RunLess);
      g.delta_in_start_[v] = static_cast<uint32_t>(g.delta_in_edges_.size());
      g.delta_in_edges_.insert(g.delta_in_edges_.end(), run.begin(),
                               run.end());
      in_run_len[v] = run.size();
      double sum = 0.0;
      for (const Edge& e : run) sum += 1.0 / e.weight;
      g.in_inv_weight_sum_[v] = sum;
    }
  }

  // ---- Effective-degree offsets ----
  // The overlay's offset arrays serve num_nodes/num_edges/Degree and
  // the delta-run lengths; they are never used to index the base CSR.
  g.out_offsets_.assign(n + 1, 0);
  g.in_offsets_.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    const size_t od =
        rebuild_out[v] ? out_run_len[v] : (v < n_old ? prev.OutDegree(v) : 0);
    const size_t id =
        rebuild_in[v] ? in_run_len[v] : (v < n_old ? prev.InDegree(v) : 0);
    g.out_offsets_[v + 1] = g.out_offsets_[v] + od;
    g.in_offsets_[v + 1] = g.in_offsets_[v] + id;
  }

  // ---- MinEdgeWeight, incrementally ----
  // Every derived backward weight is >= its forward counterpart
  // (log2(1 + indegree) >= 1 for indegree >= 1, and the floor only
  // raises), so the combined minimum is the minimum over forward
  // weights — which inserts can only lower, never raise (in-degree
  // growth reweights backward edges upward only).
  double m = prev.num_edges() > 0 ? prev.MinEdgeWeight()
                                  : std::numeric_limits<double>::infinity();
  for (const GraphDelta::NewEdge& e : delta.new_edges) {
    m = std::min(m, static_cast<double>(static_cast<float>(e.weight)));
  }
  g.min_edge_weight_ = std::isinf(m) ? 1.0 : m;

  return g;
}

}  // namespace banks
