#ifndef BANKS_SEARCH_OUTPUT_HEAP_H_
#define BANKS_SEARCH_OUTPUT_HEAP_H_

#include <cstdint>
#include <vector>

#include "search/answer.h"
#include "search/flat_hash.h"

namespace banks {

/// Buffer that reorders generated answers before output (§4.2.3, §4.5).
///
/// Answers are not generated in relevance order; the OutputHeap holds
/// them until the search determines no better answer can appear. It also
/// performs duplicate suppression: "it is possible for the same tree to
/// appear in more than one result, but with different roots; such
/// duplicates with lower score are discarded when they are inserted".
///
/// All storage is pooled: the signature table is an epoch-versioned
/// FlatHashMap into a recycled slot array, and released answers are
/// tombstoned in place rather than erased. Reset() forgets the query in
/// O(1)-ish without destroying the slots' trees, so their vector
/// capacity is re-used by the next query's candidates — a heap recycled
/// through a warm SearchContext buffers a whole query without
/// allocating. A released record is a tombstone: release is final, and
/// every late duplicate of it is dropped outright.
class OutputHeap {
 public:
  /// Forgets all pending and released answers in O(live records),
  /// keeping every table and scratch capacity for the next query.
  void Reset();

  /// Inserts a scored tree. Returns true if it is new or improves on the
  /// buffered/already-output copy with the same rotation signature.
  bool Insert(AnswerTree tree);

  /// Copy-on-accept insert for the hot path: `tree` is a pooled scratch
  /// the searcher rebuilds per candidate. Duplicate / non-improving
  /// candidates are rejected with zero allocations (signature runs on
  /// pooled scratch, no tree is copied); only an accepted candidate pays
  /// for an owning copy — and an improved duplicate copies into the
  /// existing record's capacity.
  bool InsertCopy(const AnswerTree& tree);

  /// Moves every pending answer with score >= bound into *out (best
  /// first), stopping after *out reaches `limit` answers in total.
  void ReleaseWithScoreBound(double bound, size_t limit,
                             std::vector<AnswerTree>* out);

  /// Loose-heuristic release (§4.5): moves pending answers whose *raw
  /// edge score* is <= max_eraw, sorted by overall score among them.
  void ReleaseWithEdgeBound(double max_eraw, size_t limit,
                            std::vector<AnswerTree>* out);

  /// Releases the `count` best pending answers unconditionally (the
  /// staleness drip of SearchOptions::release_patience).
  void ReleaseBest(size_t count, size_t limit, std::vector<AnswerTree>* out);

  /// Releases everything pending, best first (search termination).
  void Drain(size_t limit, std::vector<AnswerTree>* out);

  size_t pending_count() const { return pending_count_; }

  /// Best pending score, or -1 if empty. Amortized O(1): inserts keep a
  /// running max; releases invalidate it and the next call rescans.
  double BestPendingScore() const;

 private:
  /// One answer seen this query. Pending records hold the best buffered
  /// copy; released records are tombstones (their tree is moved out and
  /// late duplicates of their signature are dropped). Slots survive
  /// Reset() — only the first `used_` are live — so a slot's tree
  /// vectors keep their capacity for the next query's copy-assignments.
  struct Record {
    AnswerTree tree;
    uint64_t sig = 0;
    double score = 0;  // == tree.score while pending
    bool released = false;
  };

  /// A releasable pending record in the canonical release order
  /// (score desc, signature asc).
  struct Pick {
    double score;
    uint64_t sig;
    uint32_t slot;
  };

  /// Finds/creates the record for `tree`'s signature and decides
  /// acceptance; returns the record to fill, or nullptr for rejection.
  Record* Accept(const AnswerTree& tree, uint64_t sig);

  /// The shared release core: moves the pending records satisfying
  /// releasable(tree, arg) into *out, best first, until *out holds
  /// `limit` answers.
  void ReleaseIf(bool (*releasable)(const AnswerTree&, double), double arg,
                 size_t limit, std::vector<AnswerTree>* out);

  FlatHashMap<uint64_t, uint32_t> index_;  // signature → slot
  std::vector<Record> slots_;              // recycled across Reset()
  size_t used_ = 0;                        // live slot count this query
  size_t pending_count_ = 0;
  std::vector<Pick> pick_scratch_;         // ReleaseIf scratch, pooled
  AnswerTree::SignatureScratch sig_scratch_;
  mutable double cached_best_ = -1;
  mutable bool cache_valid_ = true;
};

}  // namespace banks

#endif  // BANKS_SEARCH_OUTPUT_HEAP_H_
