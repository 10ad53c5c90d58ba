#ifndef BANKS_DATASETS_TSV_LOADER_H_
#define BANKS_DATASETS_TSV_LOADER_H_

#include <optional>
#include <string>

#include "graph/graph.h"
#include "relational/graph_builder.h"

namespace banks {

/// Parse/load counters reported by LoadTsvGraph.
struct TsvLoadStats {
  size_t nodes = 0;
  size_t edges = 0;
  size_t comment_lines = 0;  // '#'-prefixed and blank lines skipped
};

/// Real-data ingestion: builds a queryable DataGraph from two
/// tab-separated files — the `banks_server --tsv` input path next to
/// the synthetic generators (ROADMAP "real TSV ingestion").
///
/// nodes file, one row per node:
///   id \t type \t label [\t text]
///  * `id` must be a dense 0..N-1 assignment (any row order); duplicates
///    and gaps are load errors.
///  * `type` is the node's relation name ("" = untyped). It is also
///    folded into the node's indexed text, so a keyword equal to a type
///    name matches every node of that type — the same semantics the
///    relational path gets from contiguous-range relation registration,
///    without requiring TSV ids to be grouped by type.
///  * `label` is the display string (Engine::DescribeAnswer shows
///    "type#id [label]"); `text`, when present, is additionally indexed.
///
/// edges file, one forward edge per row:
///   src \t dst [\t weight]
/// Weight defaults to 1; backward edges are derived per `options` like
/// every other graph in the system (§2.1 log-indegree weighting).
///
/// Blank lines and lines starting with '#' are skipped in both files.
/// Returns nullopt with a "file:line: what" message in *error on any
/// malformed row, unknown node id, or non-positive weight.
std::optional<DataGraph> LoadTsvGraph(const std::string& nodes_path,
                                      const std::string& edges_path,
                                      const GraphBuildOptions& options = {},
                                      std::string* error = nullptr,
                                      TsvLoadStats* stats = nullptr);

}  // namespace banks

#endif  // BANKS_DATASETS_TSV_LOADER_H_
