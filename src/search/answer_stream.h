#ifndef BANKS_SEARCH_ANSWER_STREAM_H_
#define BANKS_SEARCH_ANSWER_STREAM_H_

#include <memory>
#include <optional>
#include <vector>

#include "search/search_context.h"
#include "search/epoch.h"
#include "search/searcher.h"

namespace banks {

/// Per-stream knobs for Engine::OpenQuery / OpenQueryResolved.
struct StreamOptions {
  /// Wall-clock budget for each Next() call, in seconds. When it expires
  /// before the next answer is released, Next() returns nullopt with
  /// hit_limit() true and the search pauses — call Next() again to keep
  /// going, or abandon the stream. 0 = unbounded.
  double deadline_seconds = 0;

  /// Node-expansion budget per Next() call, same pause semantics as the
  /// deadline. 0 = unlimited.
  uint64_t step_budget = 0;
};

/// Pull-based cursor over one running search — the paper's incremental
/// top-k output (§4.5's buffer exists so answers can be emitted while
/// the search runs; the BANKS web frontend displays them as they
/// arrive). Each Next() runs the underlying search just far enough to
/// release the next in-order answer.
///
/// The contract that keeps streaming honest: the sequence of answers
/// pulled from a stream is identical, prefix by prefix, to the drained
/// Engine::Query result for the same query — every algorithm and bound
/// mode. Pausing between pulls never changes what the
/// search computes (see StepLimits), so a consumer can stop after the
/// first answer having paid only the time-to-first-answer, not the full
/// search.
///
/// Lifecycle: obtained from Engine::OpenQuery/OpenQueryResolved;
/// move-only. The stream borrows the caller's SearchContext or, when
/// given none, owns a private one. A caller that wants a pooled context
/// passes SearchContextPool::Acquire().get() and keeps the lease alive
/// past the stream. A stream abandoned after n pulls
/// leaves its context warm and fully reusable — the next query on it
/// resets the partial search.
///
/// The stream always runs on the pulling thread. To pull over the
/// serving core instead, Engine::Subscribe into a QueueSink and Pop()
/// from it (docs/SERVING.md); the sequence is the same.
class AnswerStream {
 public:
  /// Open a stream directly over a searcher (the Engine front door
  /// composes this; tests and embedders may too). Resets `context`'s
  /// stream state; the searcher must outlive the stream.
  AnswerStream(const Searcher* searcher,
               std::vector<std::vector<NodeId>> origins,
               const StreamOptions& options, SearchContext* context);

  AnswerStream(AnswerStream&& other) noexcept;
  AnswerStream& operator=(AnswerStream&& other) noexcept;
  AnswerStream(const AnswerStream&) = delete;
  AnswerStream& operator=(const AnswerStream&) = delete;

  /// Runs the search until the next in-order answer is released and
  /// returns it, or nullopt when the search is exhausted (done() true)
  /// or a per-call bound paused it first (hit_limit() true — the search
  /// is still resumable).
  std::optional<AnswerTree> Next();

  /// Runs the search to completion (ignoring the per-Next bounds) and
  /// returns every answer not yet pulled, plus the final metrics of the
  /// whole search. Engine::Query is OpenQuery(...).Drain() on a fresh
  /// stream, so a drain with no prior pulls is exactly the classic
  /// run-to-completion query.
  SearchResult Drain();

  /// Abandons the search: drops any buffered answers, lets go of the
  /// context (a borrowed one is left reset for its next query), and
  /// makes every later Next() return nullopt. Metrics-so-far stay
  /// readable.
  void Cancel();

  /// True once no further answer can come: the search completed and all
  /// released answers were pulled (or the stream was cancelled).
  bool done() const;

  /// True when the last Next() returned nullopt because a
  /// StreamOptions bound (deadline/step budget) paused the search
  /// before it could release an answer.
  bool hit_limit() const { return hit_limit_; }

  /// Answers handed out by Next() so far.
  size_t answers_pulled() const { return pulled_; }

  /// Search counters so far (final once done()). After Drain(), prefer
  /// the returned result's metrics: the live copy's per-answer time
  /// vectors move out with it.
  const SearchMetrics& metrics() const;

 private:
  friend class Engine;

  /// Engine-internal form: `origins` may be borrowed (non-null
  /// `borrowed_origins` wins over the owned vector), which lets the
  /// drained Query path skip copying the caller's origin sets.
  /// `epoch_pin` keeps the engine snapshot the searcher reads alive
  /// until the stream's terminal transition (done, drained, cancelled,
  /// IO error).
  AnswerStream(const Searcher* searcher,
               std::vector<std::vector<NodeId>> owned_origins,
               const std::vector<std::vector<NodeId>>* borrowed_origins,
               const StreamOptions& options, SearchContext* context,
               std::unique_ptr<Searcher> owned_searcher,
               EpochPin epoch_pin = {});

  const std::vector<std::vector<NodeId>>& origins() const {
    return borrowed_origins_ != nullptr ? *borrowed_origins_ : owned_origins_;
  }
  SearchContext* context() const;
  std::optional<AnswerTree> TakeBuffered();

  const Searcher* searcher_ = nullptr;
  std::unique_ptr<Searcher> owned_searcher_;  // when opened via Engine
  std::vector<std::vector<NodeId>> owned_origins_;
  const std::vector<std::vector<NodeId>>* borrowed_origins_ = nullptr;
  StreamOptions options_;

  SearchContext* external_ = nullptr;         // caller-provided context
  std::unique_ptr<SearchContext> owned_ctx_;  // private context

  size_t pulled_ = 0;
  bool finished_ = false;  // search ran to completion, failed (IO error)
                           // or was cancelled
  bool hit_limit_ = false;
  EpochPin epoch_pin_;  // released at the terminal transition
  SearchMetrics metrics_snapshot_;  // metrics() backing after Cancel()
};

}  // namespace banks

#endif  // BANKS_SEARCH_ANSWER_STREAM_H_
