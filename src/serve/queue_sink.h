#ifndef BANKS_SERVE_QUEUE_SINK_H_
#define BANKS_SERVE_QUEUE_SINK_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "serve/answer_sink.h"

namespace banks {

/// The bridge from push back to pull: an AnswerSink that buffers
/// answers behind a mutex + condition variable so a consumer thread can
/// Pop() them at its own pace. An in-process caller that wants to pull
/// from a scheduled query Subscribes into a QueueSink and Pops; the
/// pull AnswerStream itself runs inline and does not use one.
///
/// Producer side (scheduler worker): OnAnswer copies the tree into the
/// queue; OnComplete records the terminal status + final metrics. Both
/// notify the condition variable. Consumer side: Pop/WaitTerminal from
/// any one or many threads. Fully thread-safe.
class QueueSink : public AnswerSink {
 public:
  void OnAnswer(const AnswerTree& answer) override;
  void OnComplete(SubscribeStatus status,
                  const SearchMetrics& metrics) override;

  /// Takes the next buffered answer, blocking until one arrives or the
  /// subscription reaches its terminal status with the queue empty
  /// (then nullopt).
  std::optional<AnswerTree> Pop();

  /// Non-blocking take; false when the queue is currently empty.
  bool TryPop(AnswerTree* out);

  /// Blocks until OnComplete, returns the terminal status. Answers may
  /// still be buffered after this returns — drain with TryPop.
  SubscribeStatus WaitTerminal();

  /// kPending until OnComplete has run.
  SubscribeStatus status() const;

  /// True once the terminal status arrived AND every buffered answer
  /// was popped — nothing more will ever come out.
  bool exhausted() const;

  /// Answers currently buffered (diagnostics / backpressure decisions).
  size_t buffered() const;

  /// Final metrics recorded by OnComplete (default-constructed before).
  SearchMetrics final_metrics() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<AnswerTree> queue_;
  SubscribeStatus status_ = SubscribeStatus::kPending;
  SearchMetrics final_metrics_;
};

}  // namespace banks

#endif  // BANKS_SERVE_QUEUE_SINK_H_
