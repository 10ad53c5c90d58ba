#ifndef BANKS_GRAPH_GRAPH_H_
#define BANKS_GRAPH_GRAPH_H_

#include <cassert>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"
#include "storage/buffer_pool.h"

namespace banks {

class PagedStore;
struct GraphBuildOptions;
struct GraphDelta;
class Graph;
Graph ApplyGraphDelta(std::shared_ptr<const Graph> base,
                      const GraphDelta& delta,
                      const GraphBuildOptions& options);

/// Immutable directed weighted search graph in CSR form.
///
/// This is the graph the paper's algorithms run on: the *combined* graph
/// containing every forward edge from the source data plus the derived
/// backward edge for each of them (§2.1). Both out-adjacency (followed by
/// the outgoing iterator) and in-adjacency (followed by backward expanding
/// iterators) are materialized.
///
/// Per-node inverse-weight sums are precomputed for spreading activation:
/// when node v spreads activation μ·a_v, each neighbour u's share is
/// (1/w_uv) / Σ(1/w) over the competing neighbours (§4.3).
///
/// A Graph is either a *base* (built by GraphBuilder::Build or opened
/// from a PagedStore) or an *overlay* produced by ApplyGraphDelta
/// (docs/UPDATES.md): an immutable snapshot layering append-only
/// inserts over a shared base. An overlay owns fresh copies of every
/// per-node scalar and the CSR offset arrays (recomputed effective
/// degrees), plus delta adjacency runs for exactly the nodes whose
/// adjacency changed; untouched nodes read through to the base, paged
/// or resident. Overlays are flattened — base_ never itself has a
/// base_ — so reads cost at most one extra indirection at any epoch.
class Graph {
 public:
  size_t num_nodes() const { return out_offsets_.size() - 1; }
  /// Total directed edges in the combined graph (forward + backward).
  size_t num_edges() const {
    return out_offsets_.empty() ? 0 : out_offsets_.back();
  }

  /// True when adjacency (of this graph or its overlay base) lives in a
  /// paged on-disk store behind a buffer pool instead of in-memory CSR
  /// arrays (storage/paged_store.h).
  bool paged() const {
    return store_ != nullptr || (base_ != nullptr && base_->paged());
  }
  const std::shared_ptr<PagedStore>& paged_store() const {
    return base_ != nullptr ? base_->paged_store() : store_;
  }

  /// True when this graph is an update overlay over a shared base
  /// (ApplyGraphDelta); base() is then non-null and flattened.
  bool overlay() const { return base_ != nullptr; }
  const std::shared_ptr<const Graph>& base() const { return base_; }

  /// Edges leaving v (targets). Traversed by the outgoing iterator.
  /// Resident graphs only — paged adjacency needs a pin (below).
  std::span<const Edge> OutEdges(NodeId v) const {
    if (base_ != nullptr) {
      const size_t count = out_offsets_[v + 1] - out_offsets_[v];
      if (count == 0) return {};
      const uint32_t start = delta_out_start_[v];
      if (start != kNoDeltaRun) return {delta_out_edges_.data() + start, count};
      return base_->OutEdges(v);
    }
    assert(store_ == nullptr);
    return {out_edges_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }

  /// Edges entering v (sources). Traversed by backward expansion.
  /// Resident graphs only — paged adjacency needs a pin (below).
  std::span<const Edge> InEdges(NodeId v) const {
    if (base_ != nullptr) {
      const size_t count = in_offsets_[v + 1] - in_offsets_[v];
      if (count == 0) return {};
      const uint32_t start = delta_in_start_[v];
      if (start != kNoDeltaRun) return {delta_in_edges_.data() + start, count};
      return base_->InEdges(v);
    }
    assert(store_ == nullptr);
    return {in_edges_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }

  /// Mode-agnostic adjacency: resident graphs (and overlay delta runs)
  /// return a plain span and leave `pin` empty; paged graphs pin the
  /// page holding v's run (blocking on a pool miss) and the span stays
  /// valid while `pin` lives. `pin->hit()` feeds the page hit/miss
  /// metrics; on a failed page read the span is empty and
  /// `pin->failed()` is set.
  std::span<const Edge> OutEdges(NodeId v, PagePin* pin) const {
    if (base_ != nullptr) {
      const size_t count = out_offsets_[v + 1] - out_offsets_[v];
      if (count == 0) return {};
      const uint32_t start = delta_out_start_[v];
      if (start != kNoDeltaRun) return {delta_out_edges_.data() + start, count};
      return base_->OutEdges(v, pin);
    }
    if (store_ == nullptr) return OutEdges(v);
    return PagedRun(out_runs_[v], out_offsets_[v + 1] - out_offsets_[v], pin);
  }
  std::span<const Edge> InEdges(NodeId v, PagePin* pin) const {
    if (base_ != nullptr) {
      const size_t count = in_offsets_[v + 1] - in_offsets_[v];
      if (count == 0) return {};
      const uint32_t start = delta_in_start_[v];
      if (start != kNoDeltaRun) return {delta_in_edges_.data() + start, count};
      return base_->InEdges(v, pin);
    }
    if (store_ == nullptr) return InEdges(v);
    return PagedRun(in_runs_[v], in_offsets_[v + 1] - in_offsets_[v], pin);
  }

  /// Non-blocking page probes for the serving scheduler's page-wait
  /// protocol: true when reading v's adjacency would not block (graph
  /// resident, run empty, overlay delta run, or its page already
  /// pooled). On false, if `listener` is set, an asynchronous fetch has
  /// been queued — exactly one OnPageReady follows per OnFetchQueued —
  /// so the caller can park instead of blocking. Probes never pin and
  /// never change results.
  bool ProbeOutEdges(NodeId v, const std::shared_ptr<PageFetchListener>&
                                   listener = nullptr) const {
    if (base_ != nullptr) {
      if (OutDegree(v) == 0 || delta_out_start_[v] != kNoDeltaRun) return true;
      return base_->ProbeOutEdges(v, listener);
    }
    if (store_ == nullptr || OutDegree(v) == 0) return true;
    return ProbeRun(out_runs_[v], listener);
  }
  bool ProbeInEdges(NodeId v, const std::shared_ptr<PageFetchListener>&
                                  listener = nullptr) const {
    if (base_ != nullptr) {
      if (InDegree(v) == 0 || delta_in_start_[v] != kNoDeltaRun) return true;
      return base_->ProbeInEdges(v, listener);
    }
    if (store_ == nullptr || InDegree(v) == 0) return true;
    return ProbeRun(in_runs_[v], listener);
  }

  size_t OutDegree(NodeId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  size_t InDegree(NodeId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// In-degree counting only original forward edges; this is the
  /// "indegree(v)" in the backward-edge weight formula.
  uint32_t ForwardInDegree(NodeId v) const { return fwd_indegree_[v]; }

  /// Σ over in-edges (u,v) of 1/w — normalizer for incoming-direction
  /// activation spreading from v.
  double InInverseWeightSum(NodeId v) const { return in_inv_weight_sum_[v]; }

  /// Σ over out-edges (v,u) of 1/w — normalizer for outgoing-direction
  /// activation spreading from v.
  double OutInverseWeightSum(NodeId v) const { return out_inv_weight_sum_[v]; }

  /// Smallest edge weight in the combined graph (1.0 for an edgeless
  /// graph). Query-invariant aggregate precomputed at Build() time; the
  /// §4.5 depth-floor bound multiplies frontier depth by this, and
  /// recomputing it per query would scan every edge.
  double MinEdgeWeight() const { return min_edge_weight_; }

  /// Relation/type of a node (kUntypedNode when the builder never set one).
  NodeType Type(NodeId v) const {
    return node_types_.empty() ? kUntypedNode : node_types_[v];
  }

  const std::vector<std::string>& type_names() const { return type_names_; }

  /// Weight of the directed edge u→v, or a negative value if absent.
  /// Linear in OutDegree(u); intended for tests and tree construction.
  double EdgeWeight(NodeId u, NodeId v) const;

  /// True if the directed edge u→v exists in the combined graph.
  bool HasEdge(NodeId u, NodeId v) const { return EdgeWeight(u, v) >= 0; }

  /// Bytes of adjacency + offset storage (the paper's 16·V + 8·E claim is
  /// about this in-memory skeleton; §5.1).
  size_t MemoryBytes() const;

  /// Per-component byte breakdown; sizes buffer pools and feeds the
  /// micro_paged and banks_bench reports. For a paged graph
  /// `adjacency_*` counts on-disk page bytes (not RAM) and resident()
  /// excludes them.
  struct MemoryUsage {
    size_t adjacency_target_bytes = 0;  // NodeId halves of out+in edges
    size_t adjacency_weight_bytes = 0;  // weight+dir halves (incl. padding)
    size_t offset_bytes = 0;            // CSR offset arrays (always resident)
    size_t node_scalar_bytes = 0;  // indegrees + inverse-weight sums pools
    size_t type_bytes = 0;         // node types + interned type names
    size_t run_table_bytes = 0;    // paged-mode per-node run locators
    /// Paged mode: adjacency bytes kept resident as inlined short runs
    /// (a subset of adjacency_bytes(), counted in resident_bytes).
    size_t adjacency_inline_bytes = 0;

    size_t adjacency_bytes() const {
      return adjacency_target_bytes + adjacency_weight_bytes;
    }
    size_t total_bytes() const {
      return adjacency_bytes() + offset_bytes + node_scalar_bytes +
             type_bytes + run_table_bytes;
    }
    /// RAM actually held by this Graph (paged adjacency excluded; the
    /// buffer pool's resident bytes are accounted by the pool itself).
    size_t resident_bytes = 0;
  };
  MemoryUsage ComputeMemoryUsage() const;

 private:
  friend class GraphBuilder;
  friend class PagedStore;
  friend Graph ApplyGraphDelta(std::shared_ptr<const Graph> base,
                               const GraphDelta& delta,
                               const GraphBuildOptions& options);

  /// Sentinel in delta_*_start_: this node's run reads from the base.
  static constexpr uint32_t kNoDeltaRun = UINT32_MAX;

  std::span<const Edge> PagedRun(PageRunRef run, size_t count,
                                 PagePin* pin) const;
  bool ProbeRun(PageRunRef run,
                const std::shared_ptr<PageFetchListener>& listener) const;

  std::vector<size_t> out_offsets_;  // |V|+1
  std::vector<Edge> out_edges_;
  std::vector<size_t> in_offsets_;  // |V|+1
  std::vector<Edge> in_edges_;
  std::vector<uint32_t> fwd_indegree_;
  std::vector<double> in_inv_weight_sum_;
  std::vector<double> out_inv_weight_sum_;
  double min_edge_weight_ = 1.0;
  std::vector<NodeType> node_types_;
  std::vector<std::string> type_names_;

  // Paged mode (storage/paged_store.h): adjacency runs live in the
  // store's pages; these locators say where. The skeleton above (offsets,
  // scalars, types) stays resident in both modes. Runs short enough to
  // inline (PagedStoreOptions::inline_run_bytes) live in inline_edges_
  // instead — their locators carry kInlinePage and an index into it, and
  // reading them never touches the buffer pool.
  std::shared_ptr<PagedStore> store_;
  std::vector<PageRunRef> out_runs_;
  std::vector<PageRunRef> in_runs_;
  std::vector<Edge> inline_edges_;

  // Overlay mode (ApplyGraphDelta): base_ is the flattened non-overlay
  // graph this snapshot layers inserts over. delta_*_start_[v] indexes
  // this overlay's rebuilt run for v inside delta_*_edges_ (length =
  // the offsets-derived degree), or kNoDeltaRun to read the base's run.
  // Successive overlays copy their predecessor's delta storage, so a
  // node rebuilt at epoch i and untouched since still resolves in one
  // hop at epoch i+k (replaced runs leak inside the vectors until the
  // next full rebuild — bounded by total inserted+rebuilt edges).
  std::shared_ptr<const Graph> base_;
  std::vector<Edge> delta_out_edges_;
  std::vector<Edge> delta_in_edges_;
  std::vector<uint32_t> delta_out_start_;
  std::vector<uint32_t> delta_in_start_;
};

/// Options controlling derived backward edges.
struct GraphBuildOptions {
  /// Create backward edge v→u for every forward u→v with weight
  /// w_uv * log2(1 + fwd_indegree(v)). Disabling yields the pure forward
  /// graph (useful for tests and for the prestige walk ablation).
  bool add_backward_edges = true;
  /// Floor for backward edge weights; log2(1+1)=1 so only indegree-0
  /// targets (impossible for a backward edge's v) would need it, but a
  /// configurable floor also lets tests exercise weight ties.
  double min_backward_weight = 1.0;
};

/// Mutable accumulation phase. Nodes are dense ids handed out in order;
/// edges may be added in any order. Build() freezes into a Graph.
class GraphBuilder {
 public:
  /// Adds one node, optionally typed; returns its id.
  NodeId AddNode(NodeType type = kUntypedNode);

  /// Adds `count` nodes of one type; returns the first id.
  NodeId AddNodes(size_t count, NodeType type = kUntypedNode);

  /// Registers a type name; returns the dense NodeType id.
  NodeType InternType(const std::string& name);

  /// Adds a forward data edge u→v. Weight must be positive (default 1,
  /// "defined by the schema" per §2.3).
  void AddEdge(NodeId u, NodeId v, double weight = 1.0);

  size_t num_nodes() const { return num_nodes_; }
  size_t num_forward_edges() const { return edges_.size(); }

  /// Freezes into an immutable Graph. The builder is left empty.
  Graph Build(const GraphBuildOptions& options = {});

 private:
  struct RawEdge {
    NodeId u, v;
    float weight;
  };

  size_t num_nodes_ = 0;
  std::vector<RawEdge> edges_;
  std::vector<NodeType> node_types_;
  std::vector<std::string> type_names_;
  bool any_typed_ = false;
};

}  // namespace banks

#endif  // BANKS_GRAPH_GRAPH_H_
