#ifndef BANKS_SEARCH_SEARCH_CONTEXT_H_
#define BANKS_SEARCH_SEARCH_CONTEXT_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "search/answer.h"
#include "search/flat_hash.h"
#include "search/metrics.h"
#include "search/output_heap.h"
#include "search/tree_builder.h"
#include "util/indexed_heap.h"

namespace banks {

class PageFetchListener;  // storage/buffer_pool.h

/// Arena for the explored-edge lists P_u / C_u of the Bidirectional
/// algorithm (Figure 2 of the paper).
///
/// Every discovered node accumulates a list of explored in- and
/// out-edges; with one `std::vector` per node that is two heap
/// allocations (plus regrowth) per discovered node per query. Here all
/// lists live in one chunk arena: a list is a chain of small fixed-size
/// chunks referenced by (head, tail) indices, appended in O(1) and
/// iterated in insertion order. `Clear()` recycles the whole arena at
/// once, so a reused arena serves subsequent queries allocation-free.
class EdgeListPool {
 public:
  static constexpr uint32_t kNil = UINT32_MAX;

  /// Handle to one list; value-semantic, stored in the per-state
  /// parents/children arrays of the SearchContext.
  struct Ref {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };

  void Clear() { chunks_.clear(); }
  size_t chunk_count() const { return chunks_.size(); }

  /// Appends (state, weight) to the list designated by *ref.
  void Append(Ref* ref, uint32_t state, float weight) {
    if (ref->tail == kNil || chunks_[ref->tail].count == kChunkCap) {
      uint32_t c = static_cast<uint32_t>(chunks_.size());
      chunks_.emplace_back();
      if (ref->tail == kNil) {
        ref->head = c;
      } else {
        chunks_[ref->tail].next = c;
      }
      ref->tail = c;
    }
    Chunk& chunk = chunks_[ref->tail];
    chunk.state[chunk.count] = state;
    chunk.weight[chunk.count] = weight;
    chunk.count++;
  }

  /// Calls f(state, weight) for each element, in insertion order.
  template <typename F>
  void ForEach(const Ref& ref, F&& f) const {
    for (uint32_t c = ref.head; c != kNil; c = chunks_[c].next) {
      const Chunk& chunk = chunks_[c];
      for (uint32_t i = 0; i < chunk.count; ++i) {
        f(chunk.state[i], chunk.weight[i]);
      }
    }
  }

 private:
  static constexpr uint32_t kChunkCap = 6;  // 56-byte chunks
  struct Chunk {
    uint32_t next = kNil;
    uint32_t count = 0;
    uint32_t state[kChunkCap];
    float weight[kChunkCap];
  };
  std::vector<Chunk> chunks_;
};

// Packed per-state flag bits (SearchContext::state_flags). One byte per
// state instead of four bools: the hot explore loop tests at most one
// flag per pop, so the flags ride in their own dense array.
// "Expanded" means popped below dmax with the adjacency pinned, so the
// edge loop ran; a state expands at most once per direction. An explored
// edge u→v is thus in P_v/C_u iff v expanded from Q_in or u from Q_out.
// kStatePoppedIn stays apart: a state popped at dmax is not expanded but
// must not re-enter Q_in (Q_out's re-entry guard is kStateEverInQout).
inline constexpr uint8_t kStatePoppedIn = 1u << 0;     // member of X_in
inline constexpr uint8_t kStateExpandedOut = 1u << 1;  // out-edges explored
inline constexpr uint8_t kStateEverInQout = 1u << 2;   // entered Q_out once
inline constexpr uint8_t kStateDirty = 1u << 3;        // awaiting materialize
inline constexpr uint8_t kStateExpandedIn = 1u << 4;   // in-edges explored

/// Frontier priority of the Bidirectional Q_in/Q_out queues: activation
/// first (the paper's prioritization), NodeId as a strict tie-break.
/// With a strict *total* order the next pop is a property of the
/// frontier's contents alone, not of the heap's internal layout, so the
/// expansion order is reproducible across contexts, pauses and graph
/// representations.
struct ActPriority {
  double act = 0;
  NodeId node = kInvalidNode;

  /// std::priority_queue convention: a < b means a pops *after* b.
  /// Higher activation wins; equal activation falls to the smaller
  /// NodeId. Incomparable duplicates cannot arise: a node is in a given
  /// queue at most once.
  friend bool operator<(const ActPriority& a, const ActPriority& b) {
    if (a.act != b.act) return a.act < b.act;
    return a.node > b.node;
  }
};

/// Best known backward path from a node toward one keyword's origin
/// (shared record of the Backward MI/SI searchers; MI keeps one map per
/// iterator and ignores `matched`, SI one map per keyword).
struct BackwardReach {
  double dist = std::numeric_limits<double>::infinity();
  NodeId next_hop = kInvalidNode;  // toward the matched keyword node
  NodeId matched = kInvalidNode;   // the origin node reached
  uint32_t hops = 0;               // edge count (depth for dmax cutoff)
  bool settled = false;
};

/// Pooled storage for Backward-MI's per-iterator lazy-deletion frontier
/// heaps: one segment per single-node iterator, used as a binary
/// min-heap via std::push_heap/pop_heap. Segments keep their capacity
/// across queries (Clear() empties without deallocating), so a warm
/// context runs frequent-keyword queries — which construct hundreds of
/// iterators — without a single frontier allocation.
class FrontierPool {
 public:
  using Entry = std::pair<double, NodeId>;  // (dist, node)

  /// Grows the pool to at least `count` segments (never shrinks).
  void EnsureSegments(size_t count) {
    if (segments_.size() < count) segments_.resize(count);
  }

  /// Empties every segment, keeping all capacity.
  void Clear() {
    for (auto& s : segments_) s.clear();
  }

  std::vector<Entry>& Segment(size_t i) { return segments_[i]; }

  size_t segment_count() const { return segments_.size(); }

  /// Sum of segment capacities (test hook: warm reuse must not grow it).
  size_t TotalCapacity() const {
    size_t total = 0;
    for (const auto& s : segments_) total += s.capacity();
    return total;
  }

 private:
  std::vector<std::vector<Entry>> segments_;
};

/// Reusable per-query scratch space for all three search algorithms.
///
/// A search discovers a small, query-dependent fraction of the graph but
/// allocates state proportional to it: node records, per-keyword
/// distance/activation arrays, explored-edge lists, frontier heaps, hash
/// tables, the answer output buffer. Constructing these from scratch per
/// query makes allocation — not graph traversal — the dominant cost of
/// small interactive queries.
///
/// A SearchContext owns all of that state in flat, epoch-resettable
/// pools. The first query on a context grows each pool to its working
/// size; subsequent queries reuse the capacity and perform (almost) no
/// allocations. Hold one context per query stream:
///
///   SearchContext ctx;
///   for (const auto& origins : stream)
///     engine.QueryResolved(origins, Algorithm::kBidirectional, opts, &ctx);
///
/// Per-discovered-node bookkeeping is structure-of-arrays: parallel flat
/// vectors indexed by state index (node ids, depths, packed flag bytes,
/// materialization bookkeeping, explored-edge list refs), matching the
/// layout of the per-keyword dist/sp/act pools. The hot explore loop
/// touches only the arrays it actually reads.
///
/// A context is scratch space, not a result: it carries no information
/// across queries other than capacity, and a query run through a warm
/// context returns byte-identical answers to one run through a fresh
/// context. Not thread-safe; use one context per thread.
class SearchContext {
 public:
  using ScoredState = std::pair<double, uint32_t>;

  /// Entry of Backward-SI's shared frontier heap (pooled below).
  struct SIFrontierEntry {
    double dist;
    NodeId node;
    uint32_t keyword;
  };

  SearchContext() = default;
  SearchContext(const SearchContext&) = delete;
  SearchContext& operator=(const SearchContext&) = delete;

  /// Persisted control state of a resumable search (Searcher::Resume /
  /// AnswerStream). Everything a searcher's main loop used to keep in
  /// function-local variables lives here instead: the released answers
  /// and metrics accumulated so far, the expansion-step counter that
  /// drives the release-check cadence, the release-progress tracking of
  /// the loose bound's staleness drip, and the search time accumulated
  /// across slices. The *positional* state — frontier heaps, node maps,
  /// reach maps, output buffers, MI scheduler — already lives in the
  /// pools below, which is what lets a search pause at any
  /// answer-release point and resume exactly where it left off.
  ///
  /// Like the rest of the context this is scratch, not a result: a
  /// stream abandoned mid-search leaves the context fully reusable (the
  /// next Reset/BeginQuery clears it), and Reset keeps the answer
  /// vector's capacity so warm streaming allocates nothing beyond the
  /// per-answer handoff.
  struct StreamState {
    enum class Phase : uint8_t {
      kFresh,    // no query started since Reset()
      kRunning,  // mid-search: Resume continues this query
      kDone,     // search complete (or cancelled): result is final
    };

    Phase phase = Phase::kFresh;
    /// Answers in release order plus metrics-so-far; final at kDone.
    SearchResult result;
    /// Node expansions so far (the release-check cadence counter).
    uint64_t steps = 0;
    /// Last step the best pending answer improved or a release happened
    /// (ages the loose bound's staleness drip).
    uint64_t last_progress = 0;
    /// Best pending score being aged by the staleness drip.
    double last_top = -1;
    /// Search seconds accumulated across completed slices (pauses
    /// excluded, so answer timestamps stay in search time).
    double elapsed = 0;

    /// Consecutive slices that ended in kPageWait without an
    /// intervening successful probe. When a search's per-step working
    /// set exceeds the buffer pool (or concurrent tasks keep evicting
    /// each other's fetches), the probe/fetch/retry cycle can otherwise
    /// thrash forever; past kMaxPageFaultRetries the searchers skip the
    /// probe for one step and fall back to blocking pins, which always
    /// make progress. Bumped by SliceGuard::PageWait, cleared by a
    /// successful probe (results are unaffected either way).
    uint32_t page_fault_retries = 0;

    /// Probe-skip threshold for the thrash escape above.
    static constexpr uint32_t kMaxPageFaultRetries = 3;

    /// Set when a slice ends in kPageWait; the next adjacency pin books
    /// as a page miss (SliceGuard::BookPin) and clears it.
    bool page_fetch_pending = false;

    /// Forgets the current query, keeping result-vector capacity.
    void Reset();
  };

  StreamState stream;

  /// Page-fault notification target for the serving scheduler's
  /// page-wait protocol (docs/SERVING.md, docs/STORAGE.md). When set,
  /// a searcher running on a paged graph *probes* the page of its next
  /// expansion before committing to it; on a miss it queues an async
  /// fetch through this listener and returns SearchStatus::kPageWait
  /// instead of blocking its thread on the read. Null (the default, and
  /// always for plain Query/stream paths) makes paged pins block
  /// synchronously — same results, thread-occupying waits.
  std::shared_ptr<PageFetchListener> page_listener;

  /// Moves the resumable control state out of this context and resets
  /// the husk, leaving the context immediately warm-reusable. This is
  /// the serving core's detach step (docs/SERVING.md): a task idling in
  /// the scheduler — admitted but waiting for sink credit — keeps only
  /// the returned compact StreamState while the context goes back to
  /// its pool. Only meaningful once the search is kDone (the positional
  /// state still lives in the pools below and is NOT moved).
  StreamState DetachStream() {
    StreamState out = std::move(stream);
    stream.Reset();
    return out;
  }

  /// Resets all pools for a query over `num_keywords` keywords.
  /// O(live state of the previous query), allocation-free once pools
  /// are warm.
  void BeginQuery(size_t num_keywords);

  /// Number of BeginQuery calls, i.e. queries served (diagnostics).
  uint64_t queries_started() const { return queries_started_; }

  /// Ensures reach_maps and frontier segments hold at least `count`
  /// entries (MI: one per iterator; SI: one reach map per keyword).
  /// Clearing is BeginQuery's job: call this only after BeginQuery,
  /// which resets every existing map and segment.
  void EnsureReachMaps(size_t count);

  /// Number of discovered states this query (Bidirectional).
  size_t num_states() const { return node.size(); }

  // ---- Shared: node → dense index -----------------------------------------
  // Bidirectional: NodeId → state index + 1 into the per-state arrays.
  // Backward MI:   NodeId → visit index into the visit_* pools.
  // Backward SI:   NodeId → count of keywords with a finite distance.
  FlatHashMap<NodeId, uint32_t> node_index;

  // ---- Bidirectional per-state arrays (SoA, parallel) ---------------------
  std::vector<NodeId> node;        // state → discovered node id
  std::vector<uint32_t> depth;     // hops from nearest seed at discovery
  std::vector<uint8_t> state_flags;  // kState* bits
  // Materialization bookkeeping, captured when the root is *marked*
  // (that is when the answer first exists; materialization is deferred).
  std::vector<double> last_eraw;   // last materialized raw edge score
  std::vector<double> marked_time;
  std::vector<uint64_t> marked_explored;
  std::vector<uint64_t> marked_touched;
  // P_u / C_u: explored edges into / out of each state.
  std::vector<EdgeListPool::Ref> parents;
  std::vector<EdgeListPool::Ref> children;

  // ---- Bidirectional per-keyword pools ------------------------------------
  std::vector<double> dist;     // num_states() * n, kInf when unreached
  std::vector<uint32_t> sp;     // next state toward keyword, or sentinel
  std::vector<double> act;      // per-keyword activation
  std::vector<double> act_sum;  // per-state total activation (queue key)
  EdgeListPool edge_lists;      // P_u / C_u arena
  // Q_in / Q_out, keyed by state index under the (activation, NodeId)
  // total order.
  IndexedHeap<ActPriority> qin;
  IndexedHeap<ActPriority> qout;
  // Per-keyword min-dist over frontier states (§4.5 tight bound m_i).
  std::vector<IndexedHeap<double, std::greater<double>>> min_dist;
  // Min-depth over each queue (fallback bound when no distance known).
  IndexedHeap<uint32_t, std::greater<uint32_t>> qin_depth;
  IndexedHeap<uint32_t, std::greater<uint32_t>> qout_depth;
  std::vector<uint32_t> dirty_roots;  // completed, awaiting materialization
  // Max-heap (push_heap/pop_heap) of the k smallest generated eraws:
  // the top-k watermark that prunes late completions.
  std::vector<double> best_eraws;
  // Drained-to-empty cascade queues of Attach / Activate (§4.2.1, §4.3).
  std::priority_queue<ScoredState, std::vector<ScoredState>,
                      std::greater<ScoredState>>
      attach_queue;
  std::priority_queue<ScoredState> activate_queue;
  std::vector<double> bound_scratch;  // per-keyword m_i in release checks

  // ---- Answer buffering / materialization ---------------------------------
  // The §4.3 output buffer. Pooled: its signature table and record
  // slots keep their capacity across queries.
  OutputHeap output_heap;
  // Union-Dijkstra scratch of BuildAnswerFromPathUnion.
  TreeBuilderScratch tree_scratch;
  // Candidate tree, rebuilt in place per materialization; the output
  // heap copies it only on accept (OutputHeap::InsertCopy), so rejected
  // duplicates never allocate.
  AnswerTree answer_scratch;
  // Per-materialization path-union scratch (keyword nodes + edges).
  std::vector<NodeId> kw_scratch;
  std::vector<AnswerEdge> union_edge_scratch;
  std::vector<NodeId> uniq_scratch;  // per-keyword origin dedup at seeding

  // ---- Backward MI / SI pools ---------------------------------------------
  // One Dijkstra reach map per MI iterator / SI keyword.
  std::vector<FlatHashMap<NodeId, BackwardReach>> reach_maps;
  // One lazy-deletion frontier heap segment per MI iterator.
  FrontierPool frontiers;
  // MI iterator records, SoA: keyword and origin per iterator.
  std::vector<uint32_t> iter_keyword;
  std::vector<NodeId> iter_origin;
  // MI scheduler: (peek dist, iter idx) min-heap storage.
  std::vector<ScoredState> scheduler;
  std::vector<uint32_t> id_scratch;  // MI emit: chosen iterator per keyword
  // SI shared frontier: (dist, node, keyword) min-heap storage under a
  // lexicographic total order.
  std::vector<SIFrontierEntry> si_frontier;
  // MI visit records in flat pools: best dist/iterator per keyword
  // (visit_index * n + keyword) and per-visit covered-keyword count.
  std::vector<double> visit_dist;
  std::vector<uint32_t> visit_iter;
  std::vector<uint32_t> visit_covered;

 private:
  uint64_t queries_started_ = 0;
};

}  // namespace banks

#endif  // BANKS_SEARCH_SEARCH_CONTEXT_H_
