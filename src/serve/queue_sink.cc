#include "serve/queue_sink.h"

#include <utility>

namespace banks {

void QueueSink::OnAnswer(const AnswerTree& answer) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(answer);  // copy: the reference dies with the call
  }
  cv_.notify_all();
}

void QueueSink::OnComplete(SubscribeStatus status,
                           const SearchMetrics& metrics) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    status_ = status;
    final_metrics_ = metrics;
  }
  cv_.notify_all();
}

std::optional<AnswerTree> QueueSink::Pop() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    return !queue_.empty() || status_ != SubscribeStatus::kPending;
  });
  if (queue_.empty()) return std::nullopt;
  AnswerTree out = std::move(queue_.front());
  queue_.pop_front();
  return out;
}

bool QueueSink::TryPop(AnswerTree* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.empty()) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

SubscribeStatus QueueSink::WaitTerminal() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return status_ != SubscribeStatus::kPending; });
  return status_;
}

SubscribeStatus QueueSink::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

bool QueueSink::exhausted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_ != SubscribeStatus::kPending && queue_.empty();
}

size_t QueueSink::buffered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

SearchMetrics QueueSink::final_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return final_metrics_;
}

}  // namespace banks
