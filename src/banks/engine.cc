#include "banks/engine.h"

#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "graph/graph_delta.h"
#include "storage/paged_store.h"
#include "text/tokenizer.h"

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

/// Cache key for a spec's keyword list. Keywords are raw caller strings
/// (they may contain any byte), so each is length-prefixed to keep the
/// join injective.
std::string KeywordCacheKey(const std::vector<std::string>& keywords) {
  std::string key;
  for (const std::string& kw : keywords) {
    key += std::to_string(kw.size());
    key += ':';
    key += kw;
  }
  return key;
}

/// Folds one query's counters into the batch total. Timing vectors stay
/// empty: per-answer timestamps are relative to their own query's start
/// and do not aggregate meaningfully.
void AccumulateMetrics(const SearchMetrics& m, SearchMetrics* total) {
  total->nodes_explored += m.nodes_explored;
  total->nodes_touched += m.nodes_touched;
  total->edges_relaxed += m.edges_relaxed;
  total->propagation_steps += m.propagation_steps;
  total->answers_generated += m.answers_generated;
  total->answers_output += m.answers_output;
  total->page_hits += m.page_hits;
  total->page_misses += m.page_misses;
  total->page_waits += m.page_waits;
  total->elapsed_seconds += m.elapsed_seconds;
  total->budget_exhausted |= m.budget_exhausted;
}

/// One QueryBatch's execution, shared by the calling thread and the
/// sinks of its scheduler tasks. Each task's terminal OnComplete submits
/// the next pending query from the worker it ran on, so that worker
/// finds the next query runnable at once instead of waiting for the
/// calling thread. The calling thread fills the first window and then
/// waits; it acts again only when a rejected submission leaves the batch
/// with no task open, since nothing would retry it then.
class BatchRun {
 public:
  /// Submits query `index` into `sink`; false when admission rejected it
  /// (the sink has then already seen OnComplete(kRejected)).
  using SubmitFn = std::function<bool(size_t index, AnswerSink* sink)>;
  /// Runs query `index` to its end on the calling thread, delivering
  /// into `sink` as a task would, OnComplete included.
  using InlineFn = std::function<void(size_t index, AnswerSink* sink)>;

  BatchRun(const std::vector<size_t>& queries, size_t window,
           std::vector<SearchResult>* results, const BatchOptions& batch,
           SubmitFn submit, InlineFn run_inline)
      : submit_(std::move(submit)),
        run_inline_(std::move(run_inline)),
        window_(window),
        total_(queries.size()),
        pending_(queries.begin(), queries.end()) {
    sinks_.reserve(results->size());  // stable addresses: tasks hold them
    for (size_t i = 0; i < results->size(); ++i) {
      sinks_.emplace_back(this, i, &(*results)[i], &batch);
    }
  }

  /// Runs every query; returns once the last task is done with `this`.
  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (!Feed(lock) && open_ == 0) {
        size_t index = pending_.front();
        pending_.pop_front();
        ++open_;
        lock.unlock();
        run_inline_(index, &sinks_[index]);
        lock.lock();
        continue;
      }
      if (done_ == total_) return;
      cv_.wait(lock, [&] {
        return done_ == total_ || (open_ == 0 && !pending_.empty());
      });
    }
  }

 private:
  /// Collects one query's answers into its result slot, firing
  /// BatchOptions::on_answer as each arrives.
  class Sink : public AnswerSink {
   public:
    Sink(BatchRun* run, size_t index, SearchResult* result,
         const BatchOptions* batch)
        : run_(run), index_(index), result_(result), batch_(batch) {}

    void OnAnswer(const AnswerTree& answer) override {
      if (batch_->on_answer) batch_->on_answer(index_, answer);
      result_->answers.push_back(answer);
    }

    void OnComplete(SubscribeStatus status,
                    const SearchMetrics& metrics) override {
      result_->metrics = metrics;
      // A rejected submission never opened; whoever submitted it retries.
      if (status != SubscribeStatus::kRejected) run_->Finished();
    }

   private:
    BatchRun* const run_;
    const size_t index_;
    SearchResult* const result_;
    const BatchOptions* const batch_;
  };

  /// Submits pending queries while fewer than `window_` are open; false
  /// when a submission was rejected (it goes back to the front).
  bool Feed(std::unique_lock<std::mutex>& lock) {
    while (open_ < window_ && !pending_.empty()) {
      size_t index = pending_.front();
      pending_.pop_front();
      ++open_;
      lock.unlock();
      bool admitted = submit_(index, &sinks_[index]);
      lock.lock();
      if (!admitted) {
        --open_;
        pending_.push_front(index);
        return false;
      }
    }
    return true;
  }

  /// A task's terminal OnComplete: refill the window from this worker.
  /// done_ moves last, so the calling thread cannot return (and free
  /// `this`) while any sink is still inside.
  void Finished() {
    std::unique_lock<std::mutex> lock(mu_);
    --open_;
    Feed(lock);
    ++done_;
    if (done_ == total_ || (open_ == 0 && !pending_.empty())) {
      cv_.notify_all();
    }
  }

  const SubmitFn submit_;
  const InlineFn run_inline_;
  const size_t window_;
  const size_t total_;
  std::vector<Sink> sinks_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<size_t> pending_;  // queries not yet submitted, in order
  size_t open_ = 0;             // submitted, terminal OnComplete not yet run
  size_t done_ = 0;
};

}  // namespace

BatchResult Engine::QueryBatch(const std::vector<BatchQuerySpec>& specs,
                               Algorithm algorithm,
                               const SearchOptions& options,
                               const BatchOptions& batch) const {
  Scheduler& scheduler = batch.scheduler != nullptr ? *batch.scheduler
                                                    : Scheduler::Default();
  if (scheduler.num_workers() == 0) {
    throw std::invalid_argument(
        "QueryBatch: the scheduler has no worker threads");
  }
  BatchResult out;
  out.results.resize(specs.size());
  if (specs.empty()) return out;

  // The whole batch runs on one snapshot: resolution, cache keys and
  // searches all see the same epoch, whatever updates land meanwhile.
  std::shared_ptr<const Snapshot> snap = SnapshotNow();

  // ---- Resolve phase (calling thread) ----------------------------------
  // Each distinct keyword set hits the inverted index once; duplicates
  // within the batch share the resolved origins. Owned resolutions live
  // in `resolved_storage` (unique_ptr for pointer stability); specs with
  // pre-resolved origins are referenced in place.
  // ---- Answer-cache phase (calling thread) -----------------------------
  // Keyword specs whose full query signature has a live cache entry are
  // served before any resolution or search work; their on_answer replay
  // happens here, sequentially, in stored release order.
  std::vector<uint8_t> served(specs.size(), 0);
  std::vector<std::string> cache_keys(specs.size());
  std::vector<std::vector<std::string>> folded_keywords(specs.size());
  if (batch.answer_cache != nullptr) {
    for (size_t i = 0; i < specs.size(); ++i) {
      if (!specs[i].origins.empty()) continue;  // keyword specs only
      std::vector<std::string>& folded = folded_keywords[i];
      folded.reserve(specs[i].keywords.size());
      for (const std::string& kw : specs[i].keywords) {
        folded.push_back(Tokenizer::FoldKeyword(kw));
      }
      // The structure epoch in the key makes entries cached against an
      // older graph structure unreachable; posting-only updates keep
      // the epoch and invalidate by touched keyword instead.
      cache_keys[i] =
          AnswerCacheKey(algorithm, options, folded, snap->structure_epoch);
      if (batch.answer_cache->Lookup(cache_keys[i], &out.results[i])) {
        served[i] = 1;
        ++out.answer_cache_hits;
        if (batch.on_answer) {
          for (const AnswerTree& answer : out.results[i].answers) {
            batch.on_answer(i, answer);
          }
        }
      }
    }
  }

  std::vector<const std::vector<std::vector<NodeId>>*> origins(specs.size());
  std::vector<std::unique_ptr<std::vector<std::vector<NodeId>>>>
      resolved_storage;
  std::unordered_map<std::string, const std::vector<std::vector<NodeId>>*>
      cache;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (served[i]) continue;
    if (!specs[i].origins.empty()) {
      origins[i] = &specs[i].origins;
      continue;
    }
    std::string key = KeywordCacheKey(specs[i].keywords);
    auto [it, inserted] = cache.try_emplace(key, nullptr);
    if (inserted) {
      resolved_storage.push_back(
          std::make_unique<std::vector<std::vector<NodeId>>>(
              ResolveOn(*snap, specs[i].keywords)));
      it->second = resolved_storage.back().get();
    } else {
      ++out.origin_cache_hits;
    }
    origins[i] = it->second;
  }

  // ---- Execute phase ---------------------------------------------------
  // Each uncached query is a task on the batch's snapshot, delivering
  // into its own sink; results land in their input slot, so scheduling
  // order never shows. The batch keeps at most num_workers() tasks open,
  // so it does not flood the admission queue other subscribers share.
  // A rejected submission is retried when one of the batch's tasks
  // finishes; with none open it runs inline on this thread instead.
  std::vector<size_t> queries;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (!served[i]) queries.push_back(i);
  }
  SubscribeOptions subscribe;
  subscribe.scheduler = &scheduler;
  BatchRun run(
      queries, scheduler.num_workers(), &out.results, batch,
      [&](size_t i, AnswerSink* sink) {
        return SubscribeOn(snap, *origins[i], algorithm, sink, options,
                           subscribe)
                   .admission() != AdmissionState::kRejected;
      },
      [&](size_t i, AnswerSink* sink) {
        // The drained path, answers still delivered one at a time.
        auto searcher = CreateSearcher(algorithm, snap->data.graph,
                                       snap->prestige, options);
        StreamOptions stream_options;
        stream_options.pool = &scheduler.context_pool();
        AnswerStream stream(searcher.get(), {}, origins[i], stream_options,
                            nullptr, nullptr);
        while (std::optional<AnswerTree> answer = stream.Next()) {
          sink->OnAnswer(*answer);
        }
        sink->OnComplete(SubscribeStatus::kCompleted, stream.Drain().metrics);
      });
  run.Run();

  // ---- Cache store ------------------------------------------------------
  // Executed keyword queries feed the shared cache: it holds each
  // query's own full result, exactly what a later standalone hit should
  // serve.
  if (batch.answer_cache != nullptr) {
    for (size_t i = 0; i < specs.size(); ++i) {
      if (served[i] || cache_keys[i].empty()) continue;
      batch.answer_cache->Store(cache_keys[i], std::move(folded_keywords[i]),
                                out.results[i]);
    }
  }

  for (const SearchResult& r : out.results) {
    AccumulateMetrics(r.metrics, &out.total);
  }
  return out;
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

uint64_t Engine::ApplyUpdate(const UpdateBatch& batch, AnswerCache* cache) {
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
  std::vector<std::string> touched;
  next->data.index = ApplyIndexDelta(std::move(prev_index), docs, &touched);

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

  {
    std::lock_guard<std::mutex> lock(live_->mu);
    live_->snap = std::move(next);
  }

  // Invalidate AFTER the publish: entries stored by batches racing on
  // the old snapshot before this point are swept here; ones stored
  // after carry the old structure epoch in their key (structural
  // updates) or age out within the TTL (posting-only — the documented
  // staleness bound of opting into the cache).
  if (cache != nullptr && !touched.empty()) {
    cache->InvalidateKeywords(touched);
  }
  return published;
}

const std::string& Engine::NodeLabel(NodeId node) const {
  static const std::string kUnknown = "<node>";
  // Reads the current snapshot; like the graph()/index() accessors, the
  // returned reference is for quiescent use — it stays valid until the
  // next ApplyUpdate retires the snapshot.
  std::shared_ptr<const Snapshot> snap = SnapshotNow();
  if (node >= snap->data.node_labels.size()) return kUnknown;
  return snap->data.node_labels[node];
}

std::string Engine::DescribeAnswer(const AnswerTree& tree) const {
  std::ostringstream os;
  os << "root: " << NodeLabel(tree.root) << "  (score " << tree.score
     << ", Eraw " << tree.edge_score_raw << ", N " << tree.node_prestige
     << ")\n";
  for (const AnswerEdge& e : tree.edges) {
    os << "  " << NodeLabel(e.parent) << " -> " << NodeLabel(e.child)
       << "  (w " << e.weight << ")\n";
  }
  for (size_t i = 0; i < tree.keyword_nodes.size(); ++i) {
    os << "  keyword " << i << " @ " << NodeLabel(tree.keyword_nodes[i])
       << "  (dist " << tree.keyword_distances[i] << ")\n";
  }
  return os.str();
}

}  // namespace banks
