#ifndef BANKS_BANKS_ENGINE_H_
#define BANKS_BANKS_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "prestige/pagerank.h"
#include "relational/graph_builder.h"
#include "search/answer_stream.h"
#include "search/context_pool.h"
#include "search/searcher.h"
#include "serve/scheduler.h"

namespace banks {

/// Engine construction knobs.
struct EngineOptions {
  GraphBuildOptions graph;
  PrestigeOptions prestige;
  /// When false, uniform prestige is used (pure edge-score ranking);
  /// saves the PageRank pass for tests and ablations.
  bool compute_prestige = true;
};

/// One append-only live-graph update (docs/UPDATES.md): new nodes, new
/// forward edges, new text postings. No deletes or mutations in v1.
/// Applied atomically by Engine::ApplyUpdate — queries opened before
/// the apply keep reading the snapshot they started on; queries opened
/// after see the whole batch.
struct UpdateBatch {
  struct NewNode {
    /// Node type name ("" = untyped). Interned against the graph's
    /// existing type names; unseen names are appended.
    std::string type;
    /// Display label (Engine::DescribeAnswer shows it).
    std::string label;
    /// Text indexed for keyword matching (may be empty).
    std::string text;
  };
  struct NewEdge {
    /// Endpoints: existing node ids or ids of nodes in this batch
    /// (the i-th NewNode gets id num_nodes-before-update + i).
    NodeId u = 0;
    NodeId v = 0;
    double weight = 1.0;
  };
  struct NewText {
    /// Additional keyword text for an EXISTING node (append-only
    /// posting growth; the node's stored label/text is not rewritten).
    NodeId node = 0;
    std::string text;
  };

  std::vector<NewNode> nodes;
  std::vector<NewEdge> edges;
  std::vector<NewText> texts;

  bool empty() const { return nodes.empty() && edges.empty() && texts.empty(); }
};

/// The top-level BANKS engine: data graph + inverted keyword index +
/// precomputed node prestige, answering keyword queries with any of the
/// three algorithms. This is the facade a downstream user works with:
///
///   Database db = ...;                       // or GenerateDblp(cfg)
///   Engine engine = Engine::FromDatabase(db);
///   SearchResult r = engine.Query({"gray", "transaction"},
///                                 Algorithm::kBidirectional);
///
/// BANKS is an *incremental* top-k system: §4.5's output buffer exists
/// so answers can be emitted one at a time while the search is still
/// running. OpenQuery is the streaming front door that exposes exactly
/// that — an AnswerStream whose Next() runs the search just far enough
/// to release the next in-order answer:
///
///   AnswerStream s = engine.OpenQuery({"gray", "transaction"},
///                                     Algorithm::kBidirectional);
///   while (auto answer = s.Next()) display(*answer);
///
/// Query is OpenQuery(...).Drain() — same state machine, run in one
/// slice — so streamed and drained results are identical prefix by
/// prefix. Query and OpenQuery run on the caller's thread; they are the
/// reference the serving path is checked against.
///
/// Subscribe is the one concurrent entry: each call is a task on the
/// serving core (docs/SERVING.md) that pushes the same answer sequence
/// into a sink. A caller with many queries in flight submits one
/// Subscribe per query, each into its own sink, and Waits on them all.
///
/// Node prestige is computed once at construction (§2.3: "node prestige
/// scores can be assumed to be precomputed").
///
/// Live updates (docs/UPDATES.md): ApplyUpdate applies an append-only
/// UpdateBatch and publishes it as a new immutable epoch snapshot.
/// Queries, streams and subscriptions pin the epoch current when they
/// were opened and keep reading it — snapshot isolation — while new
/// queries see the updated state; search on any snapshot is
/// byte-identical to a fresh-built engine of the same logical state
/// (ARCHITECTURE.md, contract 4). Writers serialize against each other;
/// readers never block.
class Engine {
 public:
  /// Extracts the data graph from a relational database (§2.1).
  static Engine FromDatabase(const Database& db,
                             const EngineOptions& options = {});

  /// Wraps a pre-built data graph (e.g. loaded from disk).
  explicit Engine(DataGraph data, const EngineOptions& options = {});

  /// Resolves keywords to origin sets S_i (token postings plus
  /// relation-name matches).
  std::vector<std::vector<NodeId>> Resolve(
      const std::vector<std::string>& keywords) const;

  /// End-to-end query: resolve + search. Pass a SearchContext to reuse
  /// per-query scratch space across a query stream (the second query on
  /// a warm context performs no large allocations); nullptr runs the
  /// query on a fresh context.
  SearchResult Query(const std::vector<std::string>& keywords,
                     Algorithm algorithm, const SearchOptions& options = {},
                     SearchContext* context = nullptr) const;

  /// Search over pre-resolved origin sets (benchmarks resolve once and
  /// run several algorithms on identical origins).
  SearchResult QueryResolved(const std::vector<std::vector<NodeId>>& origins,
                             Algorithm algorithm,
                             const SearchOptions& options = {},
                             SearchContext* context = nullptr) const;

  /// Opens a resumable search and returns its pull cursor: resolve +
  /// begin, but no expansion work happens until the first Next()/
  /// Drain(). The stream borrows an explicit `context` (which must
  /// outlive it) or else owns a private one. Pass a warm context when
  /// opening streams in a loop — from a SearchContextPool lease the
  /// caller keeps alive, if several threads share contexts — and
  /// streaming adds no steady-state allocations beyond the per-answer
  /// handoff.
  ///
  /// The answer sequence pulled from the stream is identical, prefix by
  /// prefix, to the drained Query result for the same arguments, at
  /// every algorithm × bound mode.
  AnswerStream OpenQuery(const std::vector<std::string>& keywords,
                         Algorithm algorithm,
                         const SearchOptions& options = {},
                         const StreamOptions& stream = {},
                         SearchContext* context = nullptr) const;

  /// OpenQuery over pre-resolved origin sets. The stream owns the moved
  /// origins, so the caller's copy may go away.
  AnswerStream OpenQueryResolved(std::vector<std::vector<NodeId>> origins,
                                 Algorithm algorithm,
                                 const SearchOptions& options = {},
                                 const StreamOptions& stream = {},
                                 SearchContext* context = nullptr) const;

  /// Registers a query as a task on the serving core (docs/SERVING.md):
  /// the search runs as cooperative quanta on the scheduler's workers —
  /// interleaved fairly with every other in-flight subscription — and
  /// each released answer is *pushed* to `sink` in release order,
  /// exactly the sequence the drained Query returns. Keywords are
  /// resolved on the calling thread; admission control also runs before
  /// this returns (Subscription::admission() says how it went; a
  /// kRejected submission has already received its terminal
  /// OnComplete). The sink must outlive the subscription — i.e. stay
  /// valid until OnComplete fires; Subscription::Wait() is the fence.
  ///
  /// SubscribeOptions carries the serving knobs: target scheduler
  /// (default: the process-wide Scheduler::Default()), fair-queueing
  /// tenant + weight, a scheduler-enforced deadline covering queueing
  /// through delivery, and delivery credits for sink flow control.
  ///
  /// This is also the network front door's entry point: banks::net's
  /// Server (docs/NETWORK.md) subscribes each wire request with a
  /// per-connection tenant and a socket-backed sink whose credits are
  /// granted by socket writability, so everything documented here —
  /// admission, deadlines, credit parking — is the remote contract too.
  Subscription Subscribe(const std::vector<std::string>& keywords,
                         Algorithm algorithm, AnswerSink* sink,
                         const SearchOptions& options = {},
                         const SubscribeOptions& subscribe = {}) const;

  /// Subscribe over pre-resolved origin sets (the task owns the moved
  /// origins, so the caller's copy may go away).
  Subscription SubscribeResolved(std::vector<std::vector<NodeId>> origins,
                                 Algorithm algorithm, AnswerSink* sink,
                                 const SearchOptions& options = {},
                                 const SubscribeOptions& subscribe = {}) const;

  /// Applies one append-only update batch and publishes it as a new
  /// epoch; returns the new epoch number. Atomic for readers: a query
  /// opened before this returns reads the prior snapshot in full, one
  /// opened after sees the whole batch. Concurrent ApplyUpdate calls
  /// serialize (one writer at a time); readers never block the writer
  /// or each other.
  ///
  /// Throws std::invalid_argument, publishing nothing and leaving
  /// epoch() unchanged, when the batch is malformed: an edge endpoint
  /// or a texts[i].node at or beyond the post-update node count, an
  /// edge weight that is not a positive finite float, or a batch whose
  /// rebuilt adjacency would overflow the 32-bit delta-run offsets.
  uint64_t ApplyUpdate(const UpdateBatch& batch);

  /// Epoch of the current snapshot: total ApplyUpdate publishes.
  uint64_t epoch() const { return SnapshotNow()->epoch; }
  /// Structure epoch: bumped only by batches that add nodes or edges
  /// (not by posting-only updates).
  uint64_t structure_epoch() const { return SnapshotNow()->structure_epoch; }

  /// Direct views of the CURRENT snapshot's state, for quiescent use
  /// (setup, tests, benchmarks): the references stay valid until the
  /// next ApplyUpdate replaces the snapshot. Code racing with updates
  /// must go through Query/OpenQuery/Subscribe, which pin the snapshot
  /// they run on.
  const Graph& graph() const { return SnapshotNow()->data.graph; }
  const InvertedIndex& index() const { return SnapshotNow()->data.index; }
  const DataGraph& data() const { return SnapshotNow()->data; }
  const std::vector<double>& prestige() const {
    return SnapshotNow()->prestige;
  }

  /// Multi-line human-readable rendering of an answer tree: each node
  /// by its display label ("paper#17 [bidirectional expansion ...]"),
  /// read from one pinned snapshot.
  std::string DescribeAnswer(const AnswerTree& tree) const;

 private:
  /// One immutable epoch: the data graph (possibly an update overlay
  /// sharing its base's adjacency), its prestige vector, and the epoch
  /// counters. Published atomically by ApplyUpdate; freed when the last
  /// reader pin (EpochPin) and the engine's own reference drop.
  struct Snapshot {
    DataGraph data;
    std::vector<double> prestige;
    uint64_t epoch = 0;
    uint64_t structure_epoch = 0;
  };

  /// Shared mutable cell holding the current snapshot. Heap-allocated so
  /// the Engine stays movable while queries pin snapshots through it.
  struct Live {
    mutable std::mutex mu;  // guards `snap` swap/copy (readers + publish)
    std::mutex write_mu;    // serializes ApplyUpdate end to end
    std::shared_ptr<const Snapshot> snap;
  };

  std::shared_ptr<const Snapshot> SnapshotNow() const {
    std::lock_guard<std::mutex> lock(live_->mu);
    return live_->snap;
  }

  /// Query/OpenQuery/Subscribe internals against ONE snapshot, so a
  /// keyword query resolves and searches the same epoch.
  static std::vector<std::vector<NodeId>> ResolveOn(
      const Snapshot& snap, const std::vector<std::string>& keywords);
  static const std::string& LabelOn(const Snapshot& snap, NodeId node);
  Subscription SubscribeOn(std::shared_ptr<const Snapshot> snap,
                           std::vector<std::vector<NodeId>> origins,
                           Algorithm algorithm, AnswerSink* sink,
                           const SearchOptions& options,
                           const SubscribeOptions& subscribe) const;

  std::shared_ptr<Live> live_;
  EngineOptions options_;
};

}  // namespace banks

#endif  // BANKS_BANKS_ENGINE_H_
