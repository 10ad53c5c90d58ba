#ifndef BANKS_SEARCH_EPOCH_H_
#define BANKS_SEARCH_EPOCH_H_

#include <cstdint>
#include <memory>
#include <utility>

namespace banks {

/// A reader's hold on one engine epoch snapshot (docs/UPDATES.md).
///
/// Engine::ApplyUpdate publishes each update as a new immutable
/// snapshot; a search opened before the publish keeps reading the state
/// it started on. The pin is what makes that safe: it shares ownership
/// of the snapshot (type-erased — the holder never looks inside), so
/// the graph, index and prestige a searcher was built against outlive
/// any number of concurrent updates. Epoch reclamation is exactly
/// shared_ptr reclamation: the last pin released frees the snapshot.
///
/// Pins ride with the reader, not the thread: an AnswerStream holds its
/// pin until the terminal transition (drained, done, cancelled, IO
/// error), a scheduler task carries it in TaskSpec and the scheduler
/// releases it in the same terminal step that detaches the context —
/// including while the task is parked (credit-wait, admission queue),
/// which is why a parked task holds an epoch pin even with zero context
/// leases.
struct EpochPin {
  std::shared_ptr<const void> snapshot;
  uint64_t epoch = 0;

  explicit operator bool() const { return snapshot != nullptr; }

  void Release() {
    snapshot.reset();
    epoch = 0;
  }
};

}  // namespace banks

#endif  // BANKS_SEARCH_EPOCH_H_
