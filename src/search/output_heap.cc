#include "search/output_heap.h"

#include <algorithm>

namespace banks {

void OutputHeap::Reset() {
  index_.Clear();
  used_ = 0;  // slots_ keeps its records (and their vector capacity)
  pending_count_ = 0;
  pick_scratch_.clear();
  cached_best_ = -1;
  cache_valid_ = true;
}

OutputHeap::Record* OutputHeap::Accept(const AnswerTree& tree, uint64_t sig) {
  const size_t before = index_.size();
  uint32_t& slot = index_[sig];
  if (index_.size() != before) {  // fresh signature this query
    if (used_ == slots_.size()) slots_.emplace_back();
    slot = static_cast<uint32_t>(used_++);
    Record& rec = slots_[slot];
    rec.sig = sig;
    rec.score = tree.score;
    rec.released = false;
    pending_count_++;
    if (cache_valid_) cached_best_ = std::max(cached_best_, tree.score);
    return &rec;
  }
  Record& rec = slots_[slot];
  if (rec.released) {
    // Already released; late lower-scored rotations are dropped. A late
    // *better* rotation would ideally have waited — the bound machinery
    // exists to make this rare (§5.7 observes near-perfect ordering).
    return nullptr;
  }
  if (rec.score >= tree.score) return nullptr;
  if (cache_valid_) cached_best_ = std::max(cached_best_, tree.score);
  rec.score = tree.score;
  return &rec;
}

bool OutputHeap::Insert(AnswerTree tree) {
  Record* rec = Accept(tree, tree.Signature(&sig_scratch_));
  if (rec == nullptr) return false;
  rec->tree = std::move(tree);
  return true;
}

bool OutputHeap::InsertCopy(const AnswerTree& tree) {
  Record* rec = Accept(tree, tree.Signature(&sig_scratch_));
  if (rec == nullptr) return false;
  rec->tree = tree;  // copy-assign reuses the slot's vector capacity
  return true;
}

double OutputHeap::BestPendingScore() const {
  if (!cache_valid_) {
    cached_best_ = -1;
    for (size_t i = 0; i < used_; ++i) {
      if (slots_[i].released) continue;
      cached_best_ = std::max(cached_best_, slots_[i].score);
    }
    cache_valid_ = true;
  }
  return pending_count_ == 0 ? -1 : cached_best_;
}

void OutputHeap::ReleaseIf(bool (*releasable)(const AnswerTree&, double),
                           double arg, size_t limit,
                           std::vector<AnswerTree>* out) {
  std::vector<Pick>& picks = pick_scratch_;
  picks.clear();
  for (uint32_t i = 0; i < used_; ++i) {
    const Record& rec = slots_[i];
    if (!rec.released && releasable(rec.tree, arg)) {
      picks.push_back(Pick{rec.score, rec.sig, i});
    }
  }
  std::sort(picks.begin(), picks.end(), [](const Pick& a, const Pick& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.sig < b.sig;
  });
  for (const Pick& pick : picks) {
    if (out->size() >= limit) break;
    Record& rec = slots_[pick.slot];
    rec.released = true;
    pending_count_--;
    cache_valid_ = false;
    out->push_back(std::move(rec.tree));
  }
}

void OutputHeap::ReleaseWithScoreBound(double bound, size_t limit,
                                       std::vector<AnswerTree>* out) {
  ReleaseIf([](const AnswerTree& t, double b) { return t.score >= b; }, bound,
            limit, out);
}

void OutputHeap::ReleaseWithEdgeBound(double max_eraw, size_t limit,
                                      std::vector<AnswerTree>* out) {
  ReleaseIf(
      [](const AnswerTree& t, double b) { return t.edge_score_raw <= b; },
      max_eraw, limit, out);
}

void OutputHeap::ReleaseBest(size_t count, size_t limit,
                             std::vector<AnswerTree>* out) {
  ReleaseIf([](const AnswerTree&, double) { return true; }, 0,
            std::min(limit, out->size() + count), out);
}

void OutputHeap::Drain(size_t limit, std::vector<AnswerTree>* out) {
  ReleaseIf([](const AnswerTree&, double) { return true; }, 0, limit, out);
}

}  // namespace banks
