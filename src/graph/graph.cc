#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "storage/paged_store.h"

namespace banks {

double Graph::EdgeWeight(NodeId u, NodeId v) const {
  double best = -1.0;
  PagePin pin;
  for (const Edge& e : OutEdges(u, &pin)) {
    if (e.other == v && (best < 0 || e.weight < best)) best = e.weight;
  }
  return best;
}

std::span<const Edge> Graph::PagedRun(PageRunRef run, size_t count,
                                      PagePin* pin) const {
  if (count == 0) return {};
  if (run.page == kInlinePage) {
    return {inline_edges_.data() + run.offset, count};  // pin stays empty
  }
  const std::byte* base = store_->pool().Pin(run.page, pin);
  if (base == nullptr) return {};  // failed read: pin->failed() is set
  return {reinterpret_cast<const Edge*>(base + run.offset), count};
}

size_t Graph::MemoryBytes() const {
  return out_offsets_.size() * sizeof(size_t) +
         out_edges_.size() * sizeof(Edge) +
         in_offsets_.size() * sizeof(size_t) +
         in_edges_.size() * sizeof(Edge) +
         fwd_indegree_.size() * sizeof(uint32_t) +
         in_inv_weight_sum_.size() * sizeof(double) +
         out_inv_weight_sum_.size() * sizeof(double) +
         node_types_.size() * sizeof(NodeType);
}

Graph::MemoryUsage Graph::ComputeMemoryUsage() const {
  MemoryUsage u;
  const size_t edge_slots = num_edges() * 2;  // out + in copies
  u.adjacency_target_bytes = edge_slots * sizeof(NodeId);
  u.adjacency_weight_bytes = edge_slots * (sizeof(Edge) - sizeof(NodeId));
  u.offset_bytes = (out_offsets_.size() + in_offsets_.size()) * sizeof(size_t);
  u.node_scalar_bytes = fwd_indegree_.size() * sizeof(uint32_t) +
                        (in_inv_weight_sum_.size() +
                         out_inv_weight_sum_.size()) *
                            sizeof(double);
  u.type_bytes = node_types_.size() * sizeof(NodeType);
  for (const std::string& name : type_names_) u.type_bytes += name.size();
  u.run_table_bytes = (out_runs_.size() + in_runs_.size()) * sizeof(PageRunRef);
  u.adjacency_inline_bytes = inline_edges_.size() * sizeof(Edge);
  u.resident_bytes = u.total_bytes();
  // Paged adjacency lives in the store's pages, except the inlined
  // short runs, which the Graph keeps in RAM.
  if (paged()) {
    u.resident_bytes -= u.adjacency_bytes() - u.adjacency_inline_bytes;
  }
  return u;
}

NodeId GraphBuilder::AddNode(NodeType type) {
  NodeId id = static_cast<NodeId>(num_nodes_++);
  if (type != kUntypedNode) any_typed_ = true;
  node_types_.push_back(type);
  return id;
}

NodeId GraphBuilder::AddNodes(size_t count, NodeType type) {
  NodeId first = static_cast<NodeId>(num_nodes_);
  num_nodes_ += count;
  if (type != kUntypedNode) any_typed_ = true;
  node_types_.insert(node_types_.end(), count, type);
  return first;
}

NodeType GraphBuilder::InternType(const std::string& name) {
  for (size_t i = 0; i < type_names_.size(); ++i) {
    if (type_names_[i] == name) return static_cast<NodeType>(i);
  }
  type_names_.push_back(name);
  return static_cast<NodeType>(type_names_.size() - 1);
}

void GraphBuilder::AddEdge(NodeId u, NodeId v, double weight) {
  assert(u < num_nodes_ && v < num_nodes_);
  assert(weight > 0);
  edges_.push_back(RawEdge{u, v, static_cast<float>(weight)});
}

Graph GraphBuilder::Build(const GraphBuildOptions& options) {
  Graph g;
  const size_t n = num_nodes_;

  // Forward in-degrees drive the backward-edge weights (§2.3).
  g.fwd_indegree_.assign(n, 0);
  for (const RawEdge& e : edges_) g.fwd_indegree_[e.v]++;

  // Materialize the combined directed edge list.
  struct Directed {
    NodeId u, v;
    float weight;
    EdgeDir dir;
  };
  std::vector<Directed> combined;
  combined.reserve(edges_.size() * (options.add_backward_edges ? 2 : 1));
  for (const RawEdge& e : edges_) {
    combined.push_back({e.u, e.v, e.weight, EdgeDir::kForward});
  }
  if (options.add_backward_edges) {
    for (const RawEdge& e : edges_) {
      double w = e.weight * std::log2(1.0 + g.fwd_indegree_[e.v]);
      w = std::max(w, options.min_backward_weight);
      combined.push_back(
          {e.v, e.u, static_cast<float>(w), EdgeDir::kBackward});
    }
  }

  // Canonical adjacency order: by source, then target, then provenance,
  // then weight. Makes graphs value-identical regardless of the order
  // edges were added (and after serialization round-trips).
  std::sort(combined.begin(), combined.end(),
            [](const Directed& a, const Directed& b) {
              if (a.u != b.u) return a.u < b.u;
              if (a.v != b.v) return a.v < b.v;
              if (a.dir != b.dir) return a.dir < b.dir;
              return a.weight < b.weight;
            });

  // Counting-sort style CSR construction for both directions.
  g.out_offsets_.assign(n + 1, 0);
  g.in_offsets_.assign(n + 1, 0);
  for (const Directed& e : combined) {
    g.out_offsets_[e.u + 1]++;
    g.in_offsets_[e.v + 1]++;
  }
  for (size_t i = 0; i < n; ++i) {
    g.out_offsets_[i + 1] += g.out_offsets_[i];
    g.in_offsets_[i + 1] += g.in_offsets_[i];
  }
  g.out_edges_.resize(combined.size());
  g.in_edges_.resize(combined.size());
  {
    std::vector<size_t> out_cursor(g.out_offsets_.begin(),
                                   g.out_offsets_.end() - 1);
    std::vector<size_t> in_cursor(g.in_offsets_.begin(),
                                  g.in_offsets_.end() - 1);
    for (const Directed& e : combined) {
      g.out_edges_[out_cursor[e.u]++] = Edge{e.v, e.weight, e.dir};
      g.in_edges_[in_cursor[e.v]++] = Edge{e.u, e.weight, e.dir};
    }
  }

  g.in_inv_weight_sum_.assign(n, 0.0);
  g.out_inv_weight_sum_.assign(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    for (const Edge& e : g.InEdges(v)) {
      g.in_inv_weight_sum_[v] += 1.0 / e.weight;
    }
    for (const Edge& e : g.OutEdges(v)) {
      g.out_inv_weight_sum_[v] += 1.0 / e.weight;
    }
  }

  if (!g.out_edges_.empty()) {
    g.min_edge_weight_ = g.out_edges_.front().weight;
    for (const Edge& e : g.out_edges_) {
      g.min_edge_weight_ = std::min<double>(g.min_edge_weight_, e.weight);
    }
  }

  if (any_typed_) g.node_types_ = std::move(node_types_);
  g.type_names_ = std::move(type_names_);

  num_nodes_ = 0;
  edges_.clear();
  node_types_.clear();
  type_names_.clear();
  any_typed_ = false;
  return g;
}

}  // namespace banks
