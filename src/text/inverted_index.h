#ifndef BANKS_TEXT_INVERTED_INDEX_H_
#define BANKS_TEXT_INVERTED_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "storage/buffer_pool.h"
#include "text/tokenizer.h"

namespace banks {

class PagedStore;

/// Keyword → node-id index over the data graph (§3: "a single index is
/// built on values from selected string-valued attributes from multiple
/// tables; the index maps from keywords to (table-name, tuple-id)
/// pairs"). Node ids already encode the table through the engine's
/// node-range registration, so postings are plain NodeId lists.
///
/// Two match channels per §2.2:
///  * token postings — nodes whose text contains the term;
///  * relation-name match — "if a term matches a relation name, all
///    tuples in the relation are assumed to match the term".
class InvertedIndex {
 public:
  /// True when this index is an update overlay over a shared base
  /// (ApplyIndexDelta): touched terms resolve from delta posting lists,
  /// untouched terms read through to the base (resident or paged).
  /// Overlays are flattened — base() never itself has a base.
  bool overlay() const { return base_ != nullptr; }
  const std::shared_ptr<const InvertedIndex>& base() const { return base_; }

  /// Indexes the text of one node. Call before Freeze().
  void AddDocument(NodeId node, std::string_view text);

  /// Declares that nodes [first, first+count) are the tuples of
  /// `relation_name`; a query term equal to the folded relation name
  /// matches them all.
  void RegisterRelation(std::string_view relation_name, NodeId first,
                        size_t count);

  /// Sorts and deduplicates postings. Must be called once after loading;
  /// Match()/Postings() require a frozen index.
  void Freeze();

  /// Postings for a single token (empty span if unknown). Frozen only.
  /// Resident indexes only — paged postings need a pin (below).
  std::span<const NodeId> Postings(std::string_view token) const;

  /// Mode-agnostic postings: paged indexes pin the page holding the
  /// list (blocking on a pool miss); the span stays valid while `pin`
  /// lives. Resident indexes leave `pin` empty.
  std::span<const NodeId> Postings(std::string_view token,
                                   PagePin* pin) const;

  /// Number of nodes matching a term through either channel — the |S_i|
  /// that seeds activation in §4.3.
  size_t MatchCount(std::string_view keyword) const;

  /// Full origin set S_i for a keyword: token postings plus, if the term
  /// names a relation, that relation's node range. Sorted, deduplicated.
  std::vector<NodeId> Match(std::string_view keyword) const;

  size_t num_terms() const;
  bool frozen() const { return frozen_; }

  /// True when posting lists (of this index or its overlay base) live in
  /// a paged store's pages instead of in-memory vectors
  /// (storage/paged_store.h).
  bool paged() const {
    return store_ != nullptr || (base_ != nullptr && base_->paged());
  }

  const Tokenizer& tokenizer() const { return tokenizer_; }

  struct RelationRange {
    NodeId first;
    size_t count;
  };

  /// (term, term id) pairs sorted by term — the deterministic
  /// enumeration order the paged-store writer serializes in.
  std::vector<std::pair<std::string, uint32_t>> SortedTerms() const;
  /// Resident-only postings by dense term id (writer-side access).
  std::span<const NodeId> PostingsById(uint32_t id) const;
  const std::unordered_map<std::string, RelationRange>& relations() const {
    return relations_;
  }

 private:
  friend class PagedStore;
  friend InvertedIndex ApplyIndexDelta(
      std::shared_ptr<const InvertedIndex> base,
      const std::vector<std::pair<NodeId, std::string>>& docs);

  struct PostingRun {
    PageRunRef ref;
    uint64_t count = 0;
  };

  /// Owned, sorted-unique copy of one token's effective posting list
  /// (empty when the token is unknown). Resolves overlay deltas, then
  /// the base; paged postings pin their page just long enough to copy.
  /// `folded` must already be keyword-folded.
  std::vector<NodeId> TokenPostingsCopy(const std::string& folded) const;
  bool HasTerm(const std::string& folded) const {
    if (base_ != nullptr) {
      return delta_postings_.count(folded) > 0 || base_->HasTerm(folded);
    }
    return term_ids_.count(folded) > 0;
  }

  Tokenizer tokenizer_;
  std::unordered_map<std::string, uint32_t> term_ids_;
  std::vector<std::vector<NodeId>> postings_;
  std::unordered_map<std::string, RelationRange> relations_;
  bool frozen_ = false;

  // Paged mode: posting list i lives at posting_runs_[i] in the store's
  // pages; postings_ stays empty.
  std::shared_ptr<PagedStore> store_;
  std::vector<PostingRun> posting_runs_;

  // Overlay mode (ApplyIndexDelta): full merged posting lists for
  // exactly the terms an update touched; every other term reads through
  // to base_. term_ids_/postings_/posting_runs_ stay empty.
  std::shared_ptr<const InvertedIndex> base_;
  std::unordered_map<std::string, std::vector<NodeId>> delta_postings_;
};

/// Applies append-only text additions over `base`, returning an
/// immutable overlay index value-identical to rebuilding the index over
/// the combined documents: each touched term's effective posting list is
/// re-materialized as the sorted-unique merge of the base list and the
/// new node ids. `docs` holds (node, text) pairs — text for brand-new
/// nodes and appended text for existing ones. Relation ranges carry over
/// unchanged (v1 has no relation growth; register all relations before
/// the first update).
///
/// The caller keeps `base` alive through the overlay's lifetime; Engine
/// does this by holding epoch snapshots in shared_ptrs.
InvertedIndex ApplyIndexDelta(
    std::shared_ptr<const InvertedIndex> base,
    const std::vector<std::pair<NodeId, std::string>>& docs);

}  // namespace banks

#endif  // BANKS_TEXT_INVERTED_INDEX_H_
