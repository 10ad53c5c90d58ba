#include "text/inverted_index.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>

#include "storage/paged_store.h"

namespace banks {

void InvertedIndex::AddDocument(NodeId node, std::string_view text) {
  assert(!frozen_);
  for (const std::string& token : tokenizer_.Tokenize(text)) {
    auto [it, inserted] =
        term_ids_.emplace(token, static_cast<uint32_t>(postings_.size()));
    if (inserted) postings_.emplace_back();
    std::vector<NodeId>& list = postings_[it->second];
    // Cheap adjacent-duplicate guard: repeated tokens in one document
    // arrive consecutively.
    if (list.empty() || list.back() != node) list.push_back(node);
  }
}

void InvertedIndex::RegisterRelation(std::string_view relation_name,
                                     NodeId first, size_t count) {
  assert(!frozen_);
  relations_[Tokenizer::FoldKeyword(relation_name)] =
      RelationRange{first, count};
}

void InvertedIndex::Freeze() {
  for (auto& list : postings_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    list.shrink_to_fit();
  }
  frozen_ = true;
}

std::span<const NodeId> InvertedIndex::Postings(std::string_view token) const {
  assert(frozen_ && !paged());
  if (base_ != nullptr) {
    auto it = delta_postings_.find(Tokenizer::FoldKeyword(token));
    if (it != delta_postings_.end()) return it->second;
    return base_->Postings(token);
  }
  auto it = term_ids_.find(Tokenizer::FoldKeyword(token));
  if (it == term_ids_.end()) return {};
  return postings_[it->second];
}

std::span<const NodeId> InvertedIndex::Postings(std::string_view token,
                                                PagePin* pin) const {
  assert(frozen_);
  if (base_ != nullptr) {
    auto delta = delta_postings_.find(Tokenizer::FoldKeyword(token));
    if (delta != delta_postings_.end()) return delta->second;  // pin empty
    return base_->Postings(token, pin);
  }
  auto it = term_ids_.find(Tokenizer::FoldKeyword(token));
  if (it == term_ids_.end()) return {};
  if (!paged()) return postings_[it->second];
  const PostingRun& run = posting_runs_[it->second];
  if (run.count == 0) return {};
  const std::byte* base = store_->pool().Pin(run.ref.page, pin);
  if (base == nullptr) return {};  // failed read: pin->failed() is set
  return {reinterpret_cast<const NodeId*>(base + run.ref.offset),
          static_cast<size_t>(run.count)};
}

size_t InvertedIndex::num_terms() const {
  if (base_ != nullptr) {
    size_t fresh = 0;
    for (const auto& [term, list] : delta_postings_) {
      if (!base_->HasTerm(term)) ++fresh;
    }
    return base_->num_terms() + fresh;
  }
  return paged() ? posting_runs_.size() : postings_.size();
}

std::vector<NodeId> InvertedIndex::TokenPostingsCopy(
    const std::string& folded) const {
  if (base_ != nullptr) {
    auto it = delta_postings_.find(folded);
    if (it != delta_postings_.end()) return it->second;
    return base_->TokenPostingsCopy(folded);
  }
  auto it = term_ids_.find(folded);
  if (it == term_ids_.end()) return {};
  if (!paged()) return postings_[it->second];
  PagePin pin;
  std::span<const NodeId> list = Postings(folded, &pin);
  return {list.begin(), list.end()};
}

std::vector<std::pair<std::string, uint32_t>> InvertedIndex::SortedTerms()
    const {
  assert(base_ == nullptr);  // overlays are not serializable in v1
  std::vector<std::pair<std::string, uint32_t>> terms(term_ids_.begin(),
                                                      term_ids_.end());
  std::sort(terms.begin(), terms.end());
  return terms;
}

std::span<const NodeId> InvertedIndex::PostingsById(uint32_t id) const {
  assert(!paged());
  return postings_[id];
}

size_t InvertedIndex::MatchCount(std::string_view keyword) const {
  return Match(keyword).size();
}

std::vector<NodeId> InvertedIndex::Match(std::string_view keyword) const {
  assert(frozen_);
  std::string folded = Tokenizer::FoldKeyword(keyword);
  // Owned copy in every mode (resident, paged, overlay) — paged
  // postings pin their page just long enough to copy the list out.
  std::vector<NodeId> out = TokenPostingsCopy(folded);
  auto rel = relations_.find(folded);
  if (rel != relations_.end()) {
    out.reserve(out.size() + rel->second.count);
    for (size_t i = 0; i < rel->second.count; ++i) {
      out.push_back(rel->second.first + static_cast<NodeId>(i));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

InvertedIndex ApplyIndexDelta(
    std::shared_ptr<const InvertedIndex> base,
    const std::vector<std::pair<NodeId, std::string>>& docs) {
  assert(base != nullptr && base->frozen());
  const InvertedIndex& prev = *base;

  InvertedIndex next;
  next.relations_ = prev.relations_;
  next.frozen_ = true;
  // Flatten: point at the ultimate non-overlay index and carry the
  // predecessor's delta lists forward, so lookups never chain.
  if (prev.base_ != nullptr) {
    next.base_ = prev.base_;
    next.delta_postings_ = prev.delta_postings_;
  } else {
    next.base_ = base;
  }

  // Group this batch's node ids per folded term.
  std::map<std::string, std::vector<NodeId>> additions;
  for (const auto& [node, text] : docs) {
    for (const std::string& token : next.tokenizer_.Tokenize(text)) {
      additions[token].push_back(node);
    }
  }

  for (auto& [term, nodes] : additions) {
    // Effective list before this batch: this overlay's (copied) delta
    // if an earlier epoch touched the term, else the root's.
    std::vector<NodeId> merged;
    auto it = next.delta_postings_.find(term);
    if (it != next.delta_postings_.end()) {
      merged = std::move(it->second);
    } else {
      merged = next.base_->TokenPostingsCopy(term);
    }
    merged.insert(merged.end(), nodes.begin(), nodes.end());
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    next.delta_postings_[term] = std::move(merged);
  }
  return next;
}

}  // namespace banks
