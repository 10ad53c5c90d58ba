#ifndef BANKS_GRAPH_GRAPH_DELTA_H_
#define BANKS_GRAPH_GRAPH_DELTA_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace banks {

/// One append-only batch of graph inserts (docs/UPDATES.md): new nodes
/// (appended in id order after the base's), new forward data edges
/// (endpoints may be existing or new nodes), and new type names
/// (appended after the base's interned names). No deletes in v1.
struct GraphDelta {
  struct NewEdge {
    NodeId u = 0;
    NodeId v = 0;
    double weight = 1.0;
  };

  /// One entry per appended node, in id order; the i-th gets id
  /// base.num_nodes() + i. kUntypedNode for untyped nodes.
  std::vector<NodeType> new_node_types;
  std::vector<NewEdge> new_edges;
  std::vector<std::string> new_type_names;

  bool empty() const { return new_node_types.empty() && new_edges.empty(); }
};

/// Applies `delta` over `base`, returning an immutable overlay Graph
/// that is *value-identical* to GraphBuilder::Build over the combined
/// logical state — same adjacency in the same canonical order, same
/// derived backward-edge weights, same per-node scalars bit-for-bit —
/// which is what makes search-on-snapshot ≡ search-on-fresh-build
/// byte-identical (ARCHITECTURE.md contract 4).
///
/// `base` may itself be an overlay (the previous epoch); the result is
/// flattened against the ultimate non-overlay graph, so reads never
/// chain. Only the nodes whose adjacency actually changes get rebuilt
/// runs: sources and targets of new edges, plus — because a target's
/// forward in-degree feeds every backward weight derived from edges
/// into it — the forward predecessors of each target. `options` must
/// match the options the base was built with.
///
/// The caller keeps `base` alive through the returned graph's lifetime
/// (the overlay shares, not copies, the base adjacency); Engine does
/// this by holding epoch snapshots in shared_ptrs.
///
/// Edge endpoints must be < base.num_nodes() + the appended node count
/// and weights positive (Engine::ApplyUpdate validates both). Throws
/// std::invalid_argument, before building anything, when the rebuilt
/// runs would push the delta-run storage past its 32-bit offsets.
Graph ApplyGraphDelta(std::shared_ptr<const Graph> base,
                      const GraphDelta& delta,
                      const GraphBuildOptions& options);

}  // namespace banks

#endif  // BANKS_GRAPH_GRAPH_DELTA_H_
