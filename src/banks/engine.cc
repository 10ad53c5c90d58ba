#include "banks/engine.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "graph/graph_delta.h"
#include "storage/paged_store.h"

namespace banks {

Engine Engine::FromDatabase(const Database& db, const EngineOptions& options) {
  return Engine(BuildDataGraph(db, options.graph), options);
}

Engine::Engine(DataGraph data, const EngineOptions& options)
    : live_(std::make_shared<Live>()), options_(options) {
  auto snap = std::make_shared<Snapshot>();
  snap->data = std::move(data);
  if (!options.compute_prestige) {
    snap->prestige = UniformPrestige(snap->data.graph.num_nodes());
  } else {
    // A paged graph carries the prestige it was saved with, so opening
    // an out-of-core engine never runs a PageRank pass over paged
    // adjacency (which would drag every page through the buffer pool at
    // startup).
    const std::shared_ptr<PagedStore>& store = snap->data.graph.paged_store();
    if (store != nullptr &&
        store->prestige().size() == snap->data.graph.num_nodes()) {
      snap->prestige = store->prestige();
    } else {
      snap->prestige = ComputePrestige(snap->data.graph, options.prestige);
    }
  }
  live_->snap = std::move(snap);
}

std::vector<std::vector<NodeId>> Engine::ResolveOn(
    const Snapshot& snap, const std::vector<std::string>& keywords) {
  std::vector<std::vector<NodeId>> origins;
  origins.reserve(keywords.size());
  for (const std::string& kw : keywords) {
    origins.push_back(snap.data.index.Match(kw));
  }
  return origins;
}

std::vector<std::vector<NodeId>> Engine::Resolve(
    const std::vector<std::string>& keywords) const {
  return ResolveOn(*SnapshotNow(), keywords);
}

SearchResult Engine::Query(const std::vector<std::string>& keywords,
                           Algorithm algorithm, const SearchOptions& options,
                           SearchContext* context) const {
  // One snapshot for resolve AND search: an update landing between the
  // two would otherwise search origins from a different epoch.
  std::shared_ptr<const Snapshot> snap = SnapshotNow();
  std::vector<std::vector<NodeId>> origins = ResolveOn(*snap, keywords);
  auto searcher =
      CreateSearcher(algorithm, snap->data.graph, snap->prestige, options);
  const Searcher* raw = searcher.get();
  return AnswerStream(raw, {}, &origins, StreamOptions{}, context,
                      std::move(searcher))
      .Drain();
}

SearchResult Engine::QueryResolved(
    const std::vector<std::vector<NodeId>>& origins, Algorithm algorithm,
    const SearchOptions& options, SearchContext* context) const {
  // A drained query is a stream pulled in one slice. The borrowed-origins
  // stream form avoids copying the caller's origin sets: the stream dies
  // inside this statement, well within `origins`' lifetime — and the
  // snapshot outlives it on this stack frame, no pin needed.
  std::shared_ptr<const Snapshot> snap = SnapshotNow();
  auto searcher =
      CreateSearcher(algorithm, snap->data.graph, snap->prestige, options);
  const Searcher* raw = searcher.get();
  return AnswerStream(raw, {}, &origins, StreamOptions{}, context,
                      std::move(searcher))
      .Drain();
}

AnswerStream Engine::OpenQuery(const std::vector<std::string>& keywords,
                               Algorithm algorithm,
                               const SearchOptions& options,
                               const StreamOptions& stream,
                               SearchContext* context) const {
  std::shared_ptr<const Snapshot> snap = SnapshotNow();
  std::vector<std::vector<NodeId>> origins = ResolveOn(*snap, keywords);
  auto searcher =
      CreateSearcher(algorithm, snap->data.graph, snap->prestige, options);
  const Searcher* raw = searcher.get();
  EpochPin pin{snap, snap->epoch};
  return AnswerStream(raw, std::move(origins), nullptr, stream, context,
                      std::move(searcher), std::move(pin));
}

AnswerStream Engine::OpenQueryResolved(std::vector<std::vector<NodeId>> origins,
                                       Algorithm algorithm,
                                       const SearchOptions& options,
                                       const StreamOptions& stream,
                                       SearchContext* context) const {
  std::shared_ptr<const Snapshot> snap = SnapshotNow();
  auto searcher =
      CreateSearcher(algorithm, snap->data.graph, snap->prestige, options);
  const Searcher* raw = searcher.get();
  // The stream pins the snapshot it was opened on: updates published
  // while the stream is live replace the engine's current snapshot but
  // never reclaim this one (snapshot isolation, docs/UPDATES.md).
  EpochPin pin{snap, snap->epoch};
  return AnswerStream(raw, std::move(origins), nullptr, stream, context,
                      std::move(searcher), std::move(pin));
}

Subscription Engine::Subscribe(const std::vector<std::string>& keywords,
                               Algorithm algorithm, AnswerSink* sink,
                               const SearchOptions& options,
                               const SubscribeOptions& subscribe) const {
  // One snapshot for resolve AND the task's whole search life.
  std::shared_ptr<const Snapshot> snap = SnapshotNow();
  std::vector<std::vector<NodeId>> origins = ResolveOn(*snap, keywords);
  return SubscribeOn(std::move(snap), std::move(origins), algorithm, sink,
                     options, subscribe);
}

Subscription Engine::SubscribeResolved(
    std::vector<std::vector<NodeId>> origins, Algorithm algorithm,
    AnswerSink* sink, const SearchOptions& options,
    const SubscribeOptions& subscribe) const {
  return SubscribeOn(SnapshotNow(), std::move(origins), algorithm, sink,
                     options, subscribe);
}

Subscription Engine::SubscribeOn(std::shared_ptr<const Snapshot> snap,
                                 std::vector<std::vector<NodeId>> origins,
                                 Algorithm algorithm, AnswerSink* sink,
                                 const SearchOptions& options,
                                 const SubscribeOptions& subscribe) const {
  Scheduler& scheduler = subscribe.scheduler != nullptr
                             ? *subscribe.scheduler
                             : Scheduler::Default();
  TaskSpec spec;
  spec.searcher =
      CreateSearcher(algorithm, snap->data.graph, snap->prestige, options);
  spec.origins = std::move(origins);
  spec.sink = sink;
  spec.tenant = subscribe.tenant;
  spec.weight = subscribe.weight;
  spec.deadline_seconds = subscribe.deadline_seconds;
  spec.answer_credits = subscribe.answer_credits;
  // The task holds the epoch pin for its whole life — admission queue,
  // page-wait parks and credit waits included — released by the
  // scheduler's terminal transition.
  spec.epoch_pin = EpochPin{snap, snap->epoch};
  return scheduler.Submit(std::move(spec));
}

namespace {

// Rejects a malformed batch before any of it is applied. Weights are
// checked as the float the graph stores: a double that rounds to 0 or
// overflows to inf would break the 1/w activation spreading.
void ValidateBatch(const UpdateBatch& batch, NodeId n_old) {
  auto reject = [](const char* field, size_t i, const char* what) {
    std::ostringstream os;
    os << "UpdateBatch: " << field << "[" << i << "] " << what;
    throw std::invalid_argument(os.str());
  };
  const uint64_t n_new = uint64_t{n_old} + batch.nodes.size();
  for (size_t i = 0; i < batch.edges.size(); ++i) {
    const UpdateBatch::NewEdge& e = batch.edges[i];
    if (e.u >= n_new || e.v >= n_new) {
      reject("edges", i, "endpoint out of range");
    }
    const float w = static_cast<float>(e.weight);
    if (!(w > 0) || !std::isfinite(w)) {
      reject("edges", i, "weight is not positive and finite");
    }
  }
  for (size_t i = 0; i < batch.texts.size(); ++i) {
    if (batch.texts[i].node >= n_new) reject("texts", i, "node out of range");
  }
}

}  // namespace

uint64_t Engine::ApplyUpdate(const UpdateBatch& batch) {
  // One writer at a time: the whole read-overlay-publish sequence is
  // serialized, so each epoch's delta is built against a settled base.
  std::lock_guard<std::mutex> write_lock(live_->write_mu);
  std::shared_ptr<const Snapshot> prev = SnapshotNow();
  const NodeId n_old = prev->data.graph.num_nodes();
  ValidateBatch(batch, n_old);

  // Intern batch node types against the graph's existing names, then
  // against names this batch already appended ("" = untyped).
  GraphDelta gd;
  gd.new_node_types.reserve(batch.nodes.size());
  const std::vector<std::string>& type_names = prev->data.graph.type_names();
  for (const UpdateBatch::NewNode& node : batch.nodes) {
    NodeType type = kUntypedNode;
    if (!node.type.empty()) {
      for (size_t i = 0; i < type_names.size(); ++i) {
        if (type_names[i] == node.type) {
          type = static_cast<NodeType>(i);
          break;
        }
      }
      for (size_t i = 0; type == kUntypedNode && i < gd.new_type_names.size();
           ++i) {
        if (gd.new_type_names[i] == node.type) {
          type = static_cast<NodeType>(type_names.size() + i);
        }
      }
      if (type == kUntypedNode) {
        type = static_cast<NodeType>(type_names.size() +
                                     gd.new_type_names.size());
        gd.new_type_names.push_back(node.type);
      }
    }
    gd.new_node_types.push_back(type);
  }
  gd.new_edges.reserve(batch.edges.size());
  for (const UpdateBatch::NewEdge& e : batch.edges) {
    gd.new_edges.push_back({e.u, e.v, e.weight});
  }

  const bool structural = !batch.nodes.empty() || !batch.edges.empty();

  // Aliasing pointers: the overlays share (never copy) the previous
  // epoch's storage, so the new snapshot keeps the whole previous
  // snapshot alive through them.
  std::shared_ptr<const Graph> prev_graph(prev, &prev->data.graph);
  std::shared_ptr<const InvertedIndex> prev_index(prev, &prev->data.index);

  auto next = std::make_shared<Snapshot>();
  next->data.graph = ApplyGraphDelta(prev_graph, gd, options_.graph);

  std::vector<std::pair<NodeId, std::string>> docs;
  docs.reserve(batch.nodes.size() + batch.texts.size());
  for (size_t i = 0; i < batch.nodes.size(); ++i) {
    if (batch.nodes[i].text.empty()) continue;
    docs.emplace_back(n_old + static_cast<NodeId>(i), batch.nodes[i].text);
  }
  for (const UpdateBatch::NewText& t : batch.texts) {
    if (t.text.empty()) continue;
    docs.emplace_back(t.node, t.text);
  }
  next->data.index = ApplyIndexDelta(std::move(prev_index), docs);

  // Table ranges are fixed at build time; batch nodes belong to no
  // table. Labels extend verbatim (NodeLabel shows them as given).
  next->data.table_first_node = prev->data.table_first_node;
  next->data.node_labels = prev->data.node_labels;
  next->data.node_labels.reserve(n_old + batch.nodes.size());
  for (const UpdateBatch::NewNode& node : batch.nodes) {
    next->data.node_labels.push_back(node.label);
  }

  if (!structural) {
    // Posting-only batch: the graph is untouched, scores carry over.
    next->prestige = prev->prestige;
  } else if (options_.compute_prestige) {
    next->prestige = ComputePrestige(next->data.graph, options_.prestige);
  } else {
    next->prestige = UniformPrestige(next->data.graph.num_nodes());
  }

  next->epoch = prev->epoch + 1;
  next->structure_epoch = prev->structure_epoch + (structural ? 1 : 0);
  const uint64_t published = next->epoch;

  std::lock_guard<std::mutex> lock(live_->mu);
  live_->snap = std::move(next);
  return published;
}

const std::string& Engine::LabelOn(const Snapshot& snap, NodeId node) {
  static const std::string kUnknown = "<node>";
  if (node >= snap.data.node_labels.size()) return kUnknown;
  return snap.data.node_labels[node];
}

std::string Engine::DescribeAnswer(const AnswerTree& tree) const {
  // One pinned snapshot for every label: the references LabelOn returns
  // stay valid for the whole rendering, whatever updates publish.
  std::shared_ptr<const Snapshot> snap = SnapshotNow();
  auto label = [&](NodeId node) -> const std::string& {
    return LabelOn(*snap, node);
  };
  std::ostringstream os;
  os << "root: " << label(tree.root) << "  (score " << tree.score
     << ", Eraw " << tree.edge_score_raw << ", N " << tree.node_prestige
     << ")\n";
  for (const AnswerEdge& e : tree.edges) {
    os << "  " << label(e.parent) << " -> " << label(e.child) << "  (w "
       << e.weight << ")\n";
  }
  for (size_t i = 0; i < tree.keyword_nodes.size(); ++i) {
    os << "  keyword " << i << " @ " << label(tree.keyword_nodes[i])
       << "  (dist " << tree.keyword_distances[i] << ")\n";
  }
  return os.str();
}

}  // namespace banks
