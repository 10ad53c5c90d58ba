#ifndef BANKS_SEARCH_SEARCHER_H_
#define BANKS_SEARCH_SEARCHER_H_

#include <memory>
#include <vector>

#include "graph/graph.h"
#include "search/answer.h"
#include "search/metrics.h"
#include "search/options.h"
#include "search/search_context.h"
#include "util/timer.h"

namespace banks {

class PagePin;  // storage/buffer_pool.h

/// The three algorithms compared in the paper (§3, §4.6, §4).
enum class Algorithm {
  kBackwardMI,     // multiple-iterator Backward expanding search [3]
  kBackwardSI,     // single-iterator ablation (§4.6)
  kBidirectional,  // this paper's contribution (§4)
};

const char* AlgorithmName(Algorithm algorithm);

/// Bounds for one Resume slice of a search. Zero-valued fields impose
/// no bound; a default StepLimits runs the search to completion.
///
/// Pausing is behavior-neutral: the bounds only decide when Resume
/// *returns* between loop iterations, never what the search computes, so
/// any pause pattern yields the same answer sequence and deterministic
/// metrics as an uninterrupted run.
///
/// Granularity: the bounds are checked between loop iterations only —
/// one complete expansion (the popped node's edges explored and, for
/// the Bidirectional searcher, its Attach/Activate cascades drained,
/// then the release check). max_steps = 1 therefore pauses after every
/// expansion.
struct StepLimits {
  /// Pause once the stream result holds at least this many released
  /// answers (an absolute count, not a per-slice increment). This is
  /// the answer-at-a-time knob: AnswerStream::Next passes pulled + 1.
  size_t release_target = 0;

  /// Pause after this many node expansions within this slice.
  uint64_t max_steps = 0;

  /// Pause once this slice has run this many wall-clock seconds. The
  /// clock is read at slice entry and then every
  /// SliceGuard::kClockStride expansions, so a pause may come up to
  /// that many expansions after the deadline.
  double deadline_seconds = 0;
};

/// What a Resume slice ended with.
enum class SearchStatus : uint8_t {
  kRunning,   // paused by a StepLimits bound; call Resume again to go on
  kDone,      // search complete: answers and metrics are final
  kPageWait,  // paused on a paged-graph page fault: the next expansion
              // needs a page that is not pooled. Only returned when the
              // context carries a page_listener (the serving scheduler's
              // page-wait protocol); an async fetch has been queued and
              // exactly one OnPageReady will follow per OnFetchQueued
              // fired during the slice. Resume again after it fires.
              // Without a listener the pin blocks synchronously instead.
  kIoError,   // terminal: a page read failed (truncated or unreadable
              // backing file) and the search cannot proceed without
              // fabricating adjacency. The stream is marked done; the
              // answers released before the failure remain valid (they
              // were computed on real bytes) but the result is partial.
};

/// Stopwatch for one Resume slice that reports seconds since *query*
/// start: the stream state's accumulated search time from earlier
/// slices plus this slice. Keeps answer timestamps (generated_at,
/// output_times) measured in search time, excluding paused gaps.
class SliceTimer {
 public:
  explicit SliceTimer(double base) : base_(base) {}
  double ElapsedSeconds() const { return base_ + timer_.ElapsedSeconds(); }
  double SliceSeconds() const { return timer_.ElapsedSeconds(); }

 private:
  double base_;
  Timer timer_;
};

// ---- Shared Resume plumbing ------------------------------------------------
// The three searchers' Resume implementations share the same slice
// skeleton: classify the slice (done / first / resuming), check the
// StepLimits between loop iterations, and finalize the stream state on
// pause or completion. The helpers below are that skeleton, so a
// StepLimits change lands in one place.

/// How a Resume slice starts (BeginResumeSlice).
enum class SliceStart : uint8_t {
  kAlreadyDone,  // stream finished (or query unrunnable): return kDone
  kFresh,        // first slice: seed the search before the main loop
  kResuming,     // mid-search: skip seeding, continue the loop
};

/// Shared Resume prologue: classifies the slice and, for a fresh query,
/// applies AND semantics — no keywords, or a keyword matching nothing,
/// marks the query done on the spot (its empty result is final).
inline SliceStart BeginResumeSlice(
    const std::vector<std::vector<NodeId>>& origins,
    SearchContext::StreamState* ss) {
  using Phase = SearchContext::StreamState::Phase;
  if (ss->phase == Phase::kDone) return SliceStart::kAlreadyDone;
  if (ss->phase == Phase::kRunning) return SliceStart::kResuming;
  bool runnable = !origins.empty();
  for (const auto& s : origins) runnable = runnable && !s.empty();
  if (!runnable) {
    ss->phase = Phase::kDone;
    return SliceStart::kAlreadyDone;
  }
  ss->phase = Phase::kRunning;
  return SliceStart::kFresh;
}

/// Evaluates the slice bounds between loop iterations and books the
/// elapsed time into the stream state when pausing. Construct once per
/// slice (captures the entry step count); never influences what the
/// search computes, only when Resume returns.
class SliceGuard {
 public:
  SliceGuard(const StepLimits& limits, SearchContext::StreamState* ss,
             const SliceTimer* timer)
      : limits_(limits),
        ss_(ss),
        timer_(timer),
        steps_at_entry_(ss->steps) {}

  /// Expansions between two reads of the wall clock. A read costs about
  /// as much as a cheap SI expansion, so reading it on every iteration
  /// taxed every deadline-bounded slice — every scheduler quantum — by
  /// several percent. The first read is at slice entry.
  static constexpr uint64_t kClockStride = 16;

  bool PauseDue() const {
    const uint64_t slice_steps = ss_->steps - steps_at_entry_;
    return (limits_.release_target != 0 &&
            ss_->result.answers.size() >= limits_.release_target) ||
           (limits_.max_steps != 0 && slice_steps >= limits_.max_steps) ||
           (limits_.deadline_seconds > 0 && slice_steps % kClockStride == 0 &&
            timer_->SliceSeconds() >= limits_.deadline_seconds);
  }

  /// Books elapsed search time and returns the paused status.
  SearchStatus Pause() const {
    ss_->result.metrics.elapsed_seconds = timer_->ElapsedSeconds();
    ss_->elapsed = ss_->result.metrics.elapsed_seconds;
    return SearchStatus::kRunning;
  }

  /// Books elapsed time like Pause() but reports a page fault: the next
  /// expansion's page is being fetched asynchronously; resume when the
  /// context's page listener hears OnPageReady.
  SearchStatus PageWait() const {
    ss_->result.metrics.elapsed_seconds = timer_->ElapsedSeconds();
    ss_->elapsed = ss_->result.metrics.elapsed_seconds;
    ++ss_->result.metrics.page_waits;
    ++ss_->page_fault_retries;
    ss_->page_fetch_pending = true;
    return SearchStatus::kPageWait;
  }

  /// Books the buffer-pool outcome of one adjacency pin into the page
  /// metrics. The first pin after a kPageWait counts as a miss even
  /// though the fetch made the page resident: the read missed the pool,
  /// it was just served while the search was parked. False (after
  /// counting the error) when the read failed — the expansion saw a
  /// partial neighbourhood and the caller must end with IoError().
  bool BookPin(const PagePin& pin) const;

  /// Terminal page-read failure: books elapsed time, marks the stream
  /// done (further Resumes are no-ops) and returns kIoError. The caller
  /// bumps metrics.io_errors at the point it saw the failed pin.
  SearchStatus IoError() const {
    ss_->result.metrics.elapsed_seconds = timer_->ElapsedSeconds();
    ss_->elapsed = ss_->result.metrics.elapsed_seconds;
    ss_->phase = SearchContext::StreamState::Phase::kDone;
    return SearchStatus::kIoError;
  }

 private:
  const StepLimits limits_;
  SearchContext::StreamState* ss_;
  const SliceTimer* timer_;
  const uint64_t steps_at_entry_;
};

/// Shared Resume epilogue: finalizes the metrics, marks the stream done.
inline SearchStatus FinishResume(SearchContext::StreamState* ss,
                                 const SliceTimer& timer) {
  ss->result.metrics.answers_output = ss->result.answers.size();
  ss->result.metrics.elapsed_seconds = timer.ElapsedSeconds();
  ss->elapsed = ss->result.metrics.elapsed_seconds;
  ss->phase = SearchContext::StreamState::Phase::kDone;
  return SearchStatus::kDone;
}

/// Common interface: a searcher is bound to a graph + prestige vector and
/// answers keyword queries given as resolved origin sets S_1..S_n
/// (duplicates within an S_i are ignored). An empty S_i means the keyword
/// matches nothing — the result is empty, per AND semantics.
class Searcher {
 public:
  Searcher(const Graph& graph, const std::vector<double>& prestige,
           const SearchOptions& options)
      : graph_(graph), prestige_(prestige), options_(options) {}
  virtual ~Searcher() = default;

  Searcher(const Searcher&) = delete;
  Searcher& operator=(const Searcher&) = delete;

  /// Runs the search to top-k completion (or exhaustion/budget) using
  /// `context` as scratch space. The context is reset at query start;
  /// passing the same (warm) context across a query stream avoids
  /// re-allocating per-query state. Must not be null.
  ///
  /// Const: a search mutates only the context, so one searcher may be
  /// shared by concurrent callers as long as each brings its own
  /// SearchContext.
  ///
  /// Implemented as Reset + one unbounded Resume slice, so a drained
  /// search and a streamed one run the identical state machine.
  SearchResult Search(const std::vector<std::vector<NodeId>>& origins,
                      SearchContext* context) const;

  /// Resumable core of the search — the streaming API's engine room.
  ///
  /// The context's stream state (SearchContext::stream) holds the whole
  /// control state of a search in flight: released answers, metrics,
  /// loop counters, release cadence and accumulated time; the
  /// positional state (frontiers, heaps, reach maps, output buffers)
  /// lives in the context pools as always. Protocol:
  ///
  ///   context->stream.Reset();                       // new query
  ///   while (searcher->Resume(origins, context, limits)
  ///          == SearchStatus::kRunning) { ... consume/decide ... }
  ///   SearchResult r = std::move(context->stream.result);
  ///
  /// Each call runs the search until a StepLimits bound pauses it
  /// (kRunning) or it completes (kDone: final release + drain done,
  /// metrics finalized). Calling Resume after kDone is a no-op that
  /// returns kDone. `origins` must be the same across all slices of one
  /// query, and the searcher's options must not change mid-query.
  ///
  /// Pausing is behavior-neutral (see StepLimits): pulling answers one
  /// at a time yields exactly the drained run's sequence, prefix by
  /// prefix.
  virtual SearchStatus Resume(const std::vector<std::vector<NodeId>>& origins,
                              SearchContext* context,
                              const StepLimits& limits) const = 0;

  /// Convenience overload backed by a context owned by this searcher
  /// (lazily created, reused across calls on the same searcher).
  SearchResult Search(const std::vector<std::vector<NodeId>>& origins);

  const SearchOptions& options() const { return options_; }

 protected:
  /// Edge admission under the configured EdgeFilter.
  bool EdgeAllowed(const Edge& e) const {
    switch (options_.edge_filter) {
      case EdgeFilter::kAll:
        return true;
      case EdgeFilter::kForwardOnly:
        return e.dir == EdgeDir::kForward;
      case EdgeFilter::kBackwardOnly:
        return e.dir == EdgeDir::kBackward;
    }
    return true;
  }

  const Graph& graph_;
  const std::vector<double>& prestige_;
  SearchOptions options_;

 private:
  std::unique_ptr<SearchContext> owned_context_;
};

/// Factory over the Algorithm enum.
std::unique_ptr<Searcher> CreateSearcher(Algorithm algorithm,
                                         const Graph& graph,
                                         const std::vector<double>& prestige,
                                         const SearchOptions& options);

}  // namespace banks

#endif  // BANKS_SEARCH_SEARCHER_H_
