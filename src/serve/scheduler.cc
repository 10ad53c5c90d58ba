#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace banks {

const char* SubscribeStatusName(SubscribeStatus status) {
  switch (status) {
    case SubscribeStatus::kPending:
      return "pending";
    case SubscribeStatus::kCompleted:
      return "completed";
    case SubscribeStatus::kDeadlineExpired:
      return "deadline_expired";
    case SubscribeStatus::kCancelled:
      return "cancelled";
    case SubscribeStatus::kRejected:
      return "rejected";
    case SubscribeStatus::kShutdown:
      return "shutdown";
    case SubscribeStatus::kIoError:
      return "io_error";
  }
  return "unknown";
}

/// One submitted search inside the scheduler. The spec fields are set
/// once at Submit; everything below the marker is guarded by
/// Scheduler::mu_, except during kExecuting, when the executing worker
/// owns lease/state/search_done exclusively (cancel_requested and
/// credits stay lock-guarded so other threads can touch them).
struct Subscription::Task {
  enum class Phase : uint8_t {
    kAdmission,   // in the admission queue: no run slot, no context
    kRunnable,    // in its tenant's run queue
    kExecuting,   // a worker is running its quantum / delivery slice
    kCreditWait,  // search done, answers undelivered, no credits;
                  // detached — holds StreamState only, no context
    kFinished,    // terminal status set
  };

  // ---- Spec (immutable after Submit) ----
  uint64_t id = 0;
  std::string tenant;
  std::unique_ptr<Searcher> searcher;
  std::vector<std::vector<NodeId>> origins;
  AnswerSink* sink = nullptr;
  double deadline_at = 0;  // scheduler-epoch seconds; 0 = no deadline
  // Engine-epoch hold: lives as long as the task — parked phases
  // included — and is released by FinishLocked with the context detach.
  EpochPin epoch_pin;

  // ---- Guarded by Scheduler::mu_ ----
  AdmissionState admission = AdmissionState::kQueued;
  Phase phase = Phase::kAdmission;
  SubscribeStatus terminal = SubscribeStatus::kPending;
  bool complete_fired = false;  // terminal OnComplete has returned
  bool cancel_requested = false;
  bool holds_slot = false;   // counted in Scheduler::slots_used_
  bool detached = false;     // `state` owns the search; no context held
  bool search_done = false;  // Resume returned kDone
  uint64_t credits = kUnlimitedCredits;
  size_t delivered = 0;   // answers pushed to the sink so far
  uint64_t quanta = 0;    // quanta this task received
  SearchContextPool::Lease lease;        // attached between quanta
  SearchContext::StreamState state;      // live once detached
};

namespace {

SchedulerOptions Sanitize(SchedulerOptions options) {
  if (options.max_running == 0) options.max_running = 1;
  return options;
}

}  // namespace

// ---- Subscription ----------------------------------------------------------

AdmissionState Subscription::admission() const {
  if (task_ == nullptr) return AdmissionState::kRejected;
  std::lock_guard<std::mutex> lock(scheduler_->mu_);
  return task_->admission;
}

SubscribeStatus Subscription::status() const {
  if (task_ == nullptr) return SubscribeStatus::kPending;
  std::lock_guard<std::mutex> lock(scheduler_->mu_);
  return task_->complete_fired ? task_->terminal : SubscribeStatus::kPending;
}

bool Subscription::finished() const {
  return status() != SubscribeStatus::kPending;
}

void Subscription::Cancel() {
  if (task_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(scheduler_->mu_);
    if (task_->terminal != SubscribeStatus::kPending ||
        task_->cancel_requested) {
      return;
    }
    task_->cancel_requested = true;
    // Push-based: the sweep drains this queue instead of scanning every
    // open task for the flag.
    scheduler_->cancel_queue_.push_back(task_);
  }
  scheduler_->work_cv_.notify_all();
}

void Subscription::AddCredits(uint64_t n) {
  if (task_ == nullptr || n == 0) return;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(scheduler_->mu_);
    Task& task = *task_;
    if (task.terminal != SubscribeStatus::kPending ||
        task.credits == kUnlimitedCredits) {
      return;
    }
    task.credits = (task.credits > kUnlimitedCredits - n)
                       ? kUnlimitedCredits
                       : task.credits + n;
    if (task.phase == Task::Phase::kCreditWait) {
      task.phase = Task::Phase::kRunnable;
      scheduler_->EnqueueLocked(task_);
      wake = true;
    }
  }
  if (wake) scheduler_->work_cv_.notify_all();
}

SubscribeStatus Subscription::Wait() {
  if (task_ == nullptr) return SubscribeStatus::kPending;
  std::unique_lock<std::mutex> lock(scheduler_->mu_);
  scheduler_->finish_cv_.wait(lock, [&] { return task_->complete_fired; });
  return task_->terminal;
}

size_t Subscription::answers_delivered() const {
  if (task_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(scheduler_->mu_);
  return task_->delivered;
}

uint64_t Subscription::id() const { return task_ != nullptr ? task_->id : 0; }

// ---- Scheduler -------------------------------------------------------------

Scheduler::Scheduler(const SchedulerOptions& options)
    : options_(Sanitize(options)) {
  size_t workers = options_.num_workers;
  if (workers == SchedulerOptions::kAutoWorkers) {
    workers = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  // Every still-open task gets its terminal OnComplete, on this thread.
  // Workers are joined, so no task is kExecuting anymore.
  std::vector<std::shared_ptr<Task>> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    while (!open_.empty()) {
      std::shared_ptr<Task> task = open_.back();
      FinishLocked(task, SubscribeStatus::kShutdown);
      leftovers.push_back(std::move(task));
    }
  }
  for (const auto& task : leftovers) CompleteOutside(task);
}

Scheduler& Scheduler::Default() {
  // Leaked intentionally: serving tasks may outlive every static-dtor
  // ordering; the process exit reclaims it.
  static Scheduler* instance = new Scheduler(SchedulerOptions{});
  return *instance;
}

Subscription Scheduler::Submit(TaskSpec spec) {
  auto task = std::make_shared<Task>();
  task->tenant = std::move(spec.tenant);
  task->searcher = std::move(spec.searcher);
  task->origins = std::move(spec.origins);
  task->sink = spec.sink;
  task->credits = spec.answer_credits;
  task->epoch_pin = std::move(spec.epoch_pin);
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    task->id = next_id_++;
    ++counters_.submitted;
    if (spec.deadline_seconds > 0) {
      task->deadline_at = NowSeconds() + spec.deadline_seconds;
    }
    auto bill_tenant = [&] {
      Tenant& tenant = tenants_[task->tenant];
      // Stride fairness: a tenant going idle→active joins at the
      // current virtual time instead of catching up on service it
      // never asked for.
      if (tenant.open == 0) tenant.pass = std::max(tenant.pass, global_pass_);
      ++tenant.open;
    };
    if (stop_) {
      rejected = true;
    } else if (slots_used_ < options_.max_running && admission_queue_.empty()) {
      task->admission = AdmissionState::kAdmitted;
      ++counters_.admitted;
      task->holds_slot = true;
      ++slots_used_;
      task->phase = Task::Phase::kRunnable;
      bill_tenant();
      EnqueueLocked(task);
      open_.push_back(task);
    } else if (admission_queue_.size() < options_.max_queued) {
      task->admission = AdmissionState::kQueued;
      ++counters_.queued;
      task->phase = Task::Phase::kAdmission;
      bill_tenant();
      admission_queue_.push_back(task);
      open_.push_back(task);
    } else {
      rejected = true;
    }
    if (rejected) {
      task->admission = AdmissionState::kRejected;
      ++counters_.rejected;
      task->terminal = SubscribeStatus::kRejected;
      task->phase = Task::Phase::kFinished;
      task->epoch_pin.Release();  // never ran: no reason to hold the epoch
    } else if (task->deadline_at > 0) {
      deadlines_.emplace(std::pair(task->deadline_at, task->id), task);
    }
  }
  if (rejected) {
    CompleteOutside(task);  // fires OnComplete(kRejected) on this thread
  } else {
    work_cv_.notify_one();
  }
  return Subscription(this, std::move(task));
}

bool Scheduler::DriveOne() {
  std::unique_lock<std::mutex> lock(mu_);
  return RunOneLocked(lock);
}

Scheduler::Stats Scheduler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = counters_;  // cumulative fields; depths below
  stats.admission_queued = admission_queue_.size();
  for (const auto& task : open_) {
    switch (task->phase) {
      case Task::Phase::kRunnable:
        ++stats.runnable;
        break;
      case Task::Phase::kExecuting:
        ++stats.executing;
        break;
      case Task::Phase::kCreditWait:
        ++stats.credit_waiting;
        break;
      default:
        break;
    }
    if (task->lease) ++stats.contexts_attached;
  }
  // Epoch-pin gauges: every open task's pin counts, parked phases
  // included — a queued or credit-waiting task holds its epoch with
  // zero context leases.
  {
    std::vector<uint64_t> epochs;
    for (const auto& task : open_) {
      if (task->epoch_pin) epochs.push_back(task->epoch_pin.epoch);
    }
    std::sort(epochs.begin(), epochs.end());
    epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());
    stats.pinned_epochs = epochs.size();
    stats.oldest_live_epoch = epochs.empty() ? 0 : epochs.front();
  }
  for (const auto& [name, tenant] : tenants_) {
    stats.tenants.push_back(
        {name, tenant.quanta, tenant.answers, tenant.open});
  }
  return stats;
}

void Scheduler::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (RunOneLocked(lock)) continue;
    if (deadlines_.empty()) {
      work_cv_.wait(lock);
      continue;
    }
    const double delay = deadlines_.begin()->first.first - NowSeconds();
    if (delay <= 0) continue;  // due already: loop back to the sweep
    work_cv_.wait_for(lock, std::chrono::duration<double>(delay));
  }
}

bool Scheduler::RunOneLocked(std::unique_lock<std::mutex>& lock) {
  bool swept = SweepLocked(lock);
  PromoteLocked();
  std::shared_ptr<Task> task = PickLocked();
  if (task == nullptr) return swept;
  ExecuteLocked(lock, task);
  return true;
}

bool Scheduler::SweepLocked(std::unique_lock<std::mutex>& lock) {
  bool any = false;
  auto finish = [&](const std::shared_ptr<Task>& victim,
                    SubscribeStatus status) {
    FinishLocked(victim, status);
    lock.unlock();
    CompleteOutside(victim);
    lock.lock();
    any = true;
  };
  // Cancellations arrive through the cancel queue (pushed by
  // Subscription::Cancel), so this is O(pending cancels) not O(open).
  while (!cancel_queue_.empty()) {
    std::shared_ptr<Task> task = std::move(cancel_queue_.front());
    cancel_queue_.pop_front();
    if (task->terminal != SubscribeStatus::kPending) continue;
    // A kExecuting task belongs to its worker, which re-checks the
    // cancel flag right after the quantum and finishes it there.
    if (task->phase == Task::Phase::kExecuting) continue;
    finish(task, SubscribeStatus::kCancelled);
  }
  // Deadlines: pop every key at or before now off the front of the
  // map. A deadline never fires early (its key must be <= now), and a
  // popped task is finished at most once (terminal tasks are skipped).
  const double now = NowSeconds();
  while (!deadlines_.empty() && deadlines_.begin()->first.first <= now) {
    std::shared_ptr<Task> task = std::move(deadlines_.begin()->second);
    deadlines_.erase(deadlines_.begin());
    if (task->terminal != SubscribeStatus::kPending) continue;
    if (task->cancel_requested) continue;  // worker/queue already owns it
    // kExecuting: the worker's post-quantum check runs at a time >= now
    // >= the deadline, so it is guaranteed to expire the task itself.
    if (task->phase == Task::Phase::kExecuting) continue;
    finish(task, SubscribeStatus::kDeadlineExpired);
  }
  return any;
}

void Scheduler::PromoteLocked() {
  while (slots_used_ < options_.max_running && !admission_queue_.empty()) {
    std::shared_ptr<Task> task = std::move(admission_queue_.front());
    admission_queue_.pop_front();
    task->holds_slot = true;
    ++slots_used_;
    task->phase = Task::Phase::kRunnable;
    EnqueueLocked(task);
  }
}

auto Scheduler::PickLocked() -> std::shared_ptr<Task> {
  Tenant* best = nullptr;
  for (auto& [name, tenant] : tenants_) {  // name order: deterministic ties
    if (tenant.runnable.empty()) continue;
    if (best == nullptr || tenant.pass < best->pass) best = &tenant;
  }
  if (best == nullptr) return nullptr;
  std::shared_ptr<Task> task = std::move(best->runnable.front());
  best->runnable.pop_front();
  global_pass_ = best->pass;
  best->pass += 1;
  ++best->quanta;
  ++counters_.quanta;
  ++task->quanta;
  task->phase = Task::Phase::kExecuting;
  return task;
}

void Scheduler::ExecuteLocked(std::unique_lock<std::mutex>& lock,
                              const std::shared_ptr<Task>& task) {
  Task& t = *task;
  double now = NowSeconds();
  bool due = (t.deadline_at > 0 && now >= t.deadline_at) || t.cancel_requested;
  bool io_failed = false;
  if (!due && !t.detached) {
    if (!t.lease) {
      // Attach: first quantum of this task. The slot was reserved at
      // admission, so this never exceeds max_running leases.
      t.lease = pool_.Acquire();
      t.lease->stream.Reset();
    }
    SearchContext* context = t.lease.get();
    StepLimits limits;
    limits.max_steps = options_.quantum_steps;
    limits.deadline_seconds = options_.quantum_seconds;
    if (t.deadline_at > 0) {
      double remaining = t.deadline_at - now;
      if (limits.deadline_seconds <= 0 ||
          remaining < limits.deadline_seconds) {
        limits.deadline_seconds = remaining;
      }
    }
    // Time to first answer: until the task has released an answer, its
    // quantum ends at the first release, so the answer is delivered now
    // rather than when the step or time budget runs out.
    if (context->stream.result.answers.empty()) limits.release_target = 1;
    const uint64_t misses_before = context->stream.result.metrics.page_misses;
    const Searcher* searcher = t.searcher.get();
    const auto& origins = t.origins;
    lock.unlock();  // the quantum itself runs without the lock
    SearchStatus status = searcher->Resume(origins, context, limits);
    lock.lock();
    t.search_done = status == SearchStatus::kDone;
    io_failed = status == SearchStatus::kIoError;
    // A quantum that missed the buffer pool read pages on this worker.
    if (context->stream.result.metrics.page_misses != misses_before) {
      ++counters_.page_waits;
    }
  }
  DeliverLocked(lock, task);
  // Post-quantum decision. Deadline/cancel win over completion so the
  // terminal status reflects why the task stopped being served.
  now = NowSeconds();
  auto finish = [&](SubscribeStatus status) {
    FinishLocked(task, status);
    lock.unlock();
    CompleteOutside(task);
    lock.lock();
  };
  if (t.cancel_requested) {
    finish(SubscribeStatus::kCancelled);
  } else if (t.deadline_at > 0 && now >= t.deadline_at) {
    finish(SubscribeStatus::kDeadlineExpired);
  } else if (io_failed) {
    // The searcher hit a failed page read and ended the stream at a
    // consistent boundary (SearchStatus::kIoError is terminal). Answers
    // already delivered stand; anything undelivered rides out with the
    // terminal metrics.
    finish(SubscribeStatus::kIoError);
  } else if (t.search_done) {
    size_t total = (t.detached ? t.state : t.lease->stream).result.answers.size();
    if (t.delivered >= total) {
      finish(SubscribeStatus::kCompleted);
    } else {
      // Credit-starved with the search complete: detach so the wait
      // holds compact StreamState, not a pooled context.
      if (!t.detached) DetachLocked(task);
      t.phase = Task::Phase::kCreditWait;
    }
  } else {
    t.phase = Task::Phase::kRunnable;
    EnqueueLocked(task);
  }
}

void Scheduler::DeliverLocked(std::unique_lock<std::mutex>& lock,
                              const std::shared_ptr<Task>& task) {
  Task& t = *task;
  if (!t.detached && !t.lease) return;  // never ran: nothing released
  for (;;) {
    // The answer vector lives in the task's context (attached) or its
    // detached state; only this worker touches it while kExecuting, so
    // reading it across the unlock below is safe.
    const std::vector<AnswerTree>& answers =
        t.detached ? t.state.result.answers : t.lease->stream.result.answers;
    size_t grant = answers.size() - t.delivered;
    if (t.credits != kUnlimitedCredits) {
      grant = static_cast<size_t>(
          std::min<uint64_t>(grant, t.credits));
    }
    if (grant == 0) return;
    size_t start = t.delivered;
    t.delivered += grant;
    if (t.credits != kUnlimitedCredits) t.credits -= grant;
    counters_.answers_delivered += grant;
    tenants_[t.tenant].answers += grant;
    AnswerSink* sink = t.sink;
    lock.unlock();
    for (size_t i = start; i < start + grant; ++i) sink->OnAnswer(answers[i]);
    lock.lock();
    // Loop: AddCredits may have landed while the lock was dropped.
  }
}

void Scheduler::FinishLocked(const std::shared_ptr<Task>& task,
                             SubscribeStatus status) {
  Task& t = *task;
  switch (t.phase) {
    case Task::Phase::kAdmission: {
      auto it =
          std::find(admission_queue_.begin(), admission_queue_.end(), task);
      if (it != admission_queue_.end()) admission_queue_.erase(it);
      break;
    }
    case Task::Phase::kRunnable: {
      auto& queue = tenants_[t.tenant].runnable;
      auto it = std::find(queue.begin(), queue.end(), task);
      if (it != queue.end()) queue.erase(it);
      break;
    }
    default:
      break;  // kExecuting (the finishing worker) / kCreditWait: queued nowhere
  }
  // Keep the stream state (final metrics for OnComplete) but return the
  // context warm and free the run slot.
  if (t.lease) DetachLocked(task);
  if (t.holds_slot) {
    t.holds_slot = false;
    --slots_used_;
  }
  t.phase = Task::Phase::kFinished;
  t.terminal = status;
  switch (status) {
    case SubscribeStatus::kCompleted:
      ++counters_.completed;
      break;
    case SubscribeStatus::kDeadlineExpired:
      ++counters_.deadline_expired;
      break;
    case SubscribeStatus::kCancelled:
      ++counters_.cancelled;
      break;
    case SubscribeStatus::kIoError:
      ++counters_.io_errors;
      break;
    default:
      break;
  }
  // The task's engine-epoch hold ends with the task: this is the same
  // terminal step that detached the context, so snapshot reclamation
  // counts parked tasks (they reach here too) but never a live search.
  t.epoch_pin.Release();
  if (t.deadline_at > 0) deadlines_.erase(std::pair(t.deadline_at, t.id));
  Tenant& tenant = tenants_[t.tenant];
  if (tenant.open > 0) --tenant.open;
  auto it = std::find(open_.begin(), open_.end(), task);
  if (it != open_.end()) {
    std::swap(*it, open_.back());
    open_.pop_back();
  }
}

void Scheduler::CompleteOutside(const std::shared_ptr<Task>& task) {
  // Terminal state: nothing mutates the task anymore, so reading the
  // status and metrics without the lock is safe.
  if (task->sink != nullptr) {
    task->sink->OnComplete(task->terminal, task->state.result.metrics);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    task->complete_fired = true;
  }
  finish_cv_.notify_all();
}

void Scheduler::EnqueueLocked(const std::shared_ptr<Task>& task) {
  tenants_[task->tenant].runnable.push_back(task);
}

void Scheduler::DetachLocked(const std::shared_ptr<Task>& task) {
  Task& t = *task;
  t.state = t.lease->DetachStream();
  t.lease.Reset();  // pool mutex nests under mu_; the pool calls nothing back
  t.detached = true;
  if (t.holds_slot) {
    t.holds_slot = false;
    --slots_used_;
  }
}

}  // namespace banks
