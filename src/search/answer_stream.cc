#include "search/answer_stream.h"

#include <utility>

namespace banks {

AnswerStream::AnswerStream(const Searcher* searcher,
                           std::vector<std::vector<NodeId>> origins,
                           const StreamOptions& options,
                           SearchContext* context)
    : AnswerStream(searcher, std::move(origins), nullptr, options, context,
                   nullptr) {}

AnswerStream::AnswerStream(
    const Searcher* searcher, std::vector<std::vector<NodeId>> owned_origins,
    const std::vector<std::vector<NodeId>>* borrowed_origins,
    const StreamOptions& options, SearchContext* context,
    std::unique_ptr<Searcher> owned_searcher, EpochPin epoch_pin)
    : searcher_(searcher),
      owned_searcher_(std::move(owned_searcher)),
      owned_origins_(std::move(owned_origins)),
      borrowed_origins_(borrowed_origins),
      options_(options),
      epoch_pin_(std::move(epoch_pin)) {
  if (context != nullptr) {
    external_ = context;
  } else {
    owned_ctx_ = std::make_unique<SearchContext>();
  }
  this->context()->stream.Reset();
}

AnswerStream::AnswerStream(AnswerStream&& other) noexcept
    : searcher_(std::exchange(other.searcher_, nullptr)),
      owned_searcher_(std::move(other.owned_searcher_)),
      owned_origins_(std::move(other.owned_origins_)),
      borrowed_origins_(std::exchange(other.borrowed_origins_, nullptr)),
      options_(other.options_),
      external_(std::exchange(other.external_, nullptr)),
      owned_ctx_(std::move(other.owned_ctx_)),
      pulled_(std::exchange(other.pulled_, 0)),
      finished_(std::exchange(other.finished_, true)),
      hit_limit_(other.hit_limit_),
      epoch_pin_(std::move(other.epoch_pin_)),
      metrics_snapshot_(std::move(other.metrics_snapshot_)) {}

AnswerStream& AnswerStream::operator=(AnswerStream&& other) noexcept {
  if (this != &other) {
    searcher_ = std::exchange(other.searcher_, nullptr);
    owned_searcher_ = std::move(other.owned_searcher_);
    owned_origins_ = std::move(other.owned_origins_);
    borrowed_origins_ = std::exchange(other.borrowed_origins_, nullptr);
    options_ = other.options_;
    external_ = std::exchange(other.external_, nullptr);
    owned_ctx_ = std::move(other.owned_ctx_);
    pulled_ = std::exchange(other.pulled_, 0);
    finished_ = std::exchange(other.finished_, true);
    hit_limit_ = other.hit_limit_;
    epoch_pin_ = std::move(other.epoch_pin_);
    metrics_snapshot_ = std::move(other.metrics_snapshot_);
  }
  return *this;
}

SearchContext* AnswerStream::context() const {
  if (external_ != nullptr) return external_;
  return owned_ctx_.get();
}

std::optional<AnswerTree> AnswerStream::TakeBuffered() {
  std::vector<AnswerTree>& answers = context()->stream.result.answers;
  if (pulled_ >= answers.size()) return std::nullopt;
  // Move out of the slot: release order is append-only, so the husk is
  // never revisited (Drain skips the pulled prefix).
  return std::move(answers[pulled_++]);
}

std::optional<AnswerTree> AnswerStream::Next() {
  hit_limit_ = false;
  SearchContext* ctx = context();
  if (ctx == nullptr) return std::nullopt;  // moved-from or cancelled
  if (std::optional<AnswerTree> buffered = TakeBuffered()) return buffered;
  if (finished_) return std::nullopt;

  StepLimits limits;
  limits.release_target = pulled_ + 1;
  limits.max_steps = options_.step_budget;
  limits.deadline_seconds = options_.deadline_seconds;
  SearchStatus status = searcher_->Resume(origins(), ctx, limits);
  if (status == SearchStatus::kDone || status == SearchStatus::kIoError) {
    // kIoError is terminal too: a graph page read failed, the released
    // prefix stands, nothing further can come. Released answers are
    // self-contained copies, so the epoch hold can end here.
    finished_ = true;
    epoch_pin_.Release();
  }
  if (std::optional<AnswerTree> released = TakeBuffered()) return released;
  if (status == SearchStatus::kRunning) hit_limit_ = true;
  return std::nullopt;
}

SearchResult AnswerStream::Drain() {
  SearchResult out;
  SearchContext* ctx = context();
  if (ctx == nullptr) {
    out.metrics = metrics_snapshot_;
    return out;
  }
  if (!finished_) {
    // Unbounded resume: ends at kDone — or kIoError on a failed page
    // read, with the released prefix as the (partial) result.
    searcher_->Resume(origins(), ctx, StepLimits{});
    finished_ = true;
  }
  epoch_pin_.Release();
  hit_limit_ = false;
  SearchResult& live = ctx->stream.result;
  out.metrics = std::move(live.metrics);
  if (pulled_ == 0) {
    out.answers = std::move(live.answers);
  } else {
    out.answers.reserve(live.answers.size() - pulled_);
    for (size_t i = pulled_; i < live.answers.size(); ++i) {
      out.answers.push_back(std::move(live.answers[i]));
    }
  }
  pulled_ = live.answers.size();
  return out;
}

void AnswerStream::Cancel() {
  SearchContext* ctx = context();
  if (ctx != nullptr) {
    metrics_snapshot_ = ctx->stream.result.metrics;
    // Leave the context ready for its next query. Abandoned partial
    // state is scratch; Reset clears it.
    ctx->stream.Reset();
  }
  external_ = nullptr;
  owned_ctx_.reset();
  epoch_pin_.Release();
  pulled_ = 0;
  finished_ = true;
  hit_limit_ = false;
}

bool AnswerStream::done() const {
  if (!finished_) return false;
  SearchContext* ctx = context();
  return ctx == nullptr || pulled_ >= ctx->stream.result.answers.size();
}

const SearchMetrics& AnswerStream::metrics() const {
  SearchContext* ctx = context();
  return ctx != nullptr ? ctx->stream.result.metrics : metrics_snapshot_;
}

}  // namespace banks
