#ifndef BANKS_SERVE_SCHEDULER_H_
#define BANKS_SERVE_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "search/context_pool.h"
#include "search/epoch.h"
#include "search/searcher.h"
#include "serve/answer_sink.h"
#include "util/timer.h"

namespace banks {

/// "No delivery credit limit": answers are pushed as soon as released.
inline constexpr uint64_t kUnlimitedCredits =
    std::numeric_limits<uint64_t>::max();

/// Construction knobs of a Scheduler (fixed for its lifetime).
struct SchedulerOptions {
  /// Worker threads executing quanta. kAutoWorkers picks
  /// hardware_concurrency; 0 spawns NO threads — manual-drive mode,
  /// where the embedder pumps quanta with Scheduler::DriveOne (tests
  /// and single-threaded embeddings; everything else behaves
  /// identically).
  static constexpr size_t kAutoWorkers = std::numeric_limits<size_t>::max();
  size_t num_workers = kAutoWorkers;

  /// Run slots: tasks allowed to hold a SearchContext concurrently.
  /// Admission beyond this queues; queued tasks hold NO context.
  size_t max_running = 64;

  /// Admission queue depth: submissions beyond max_running + this many
  /// queued tasks are rejected (kRejected, terminal immediately).
  size_t max_queued = 1024;

  /// Node-expansion budget of one quantum (StepLimits::max_steps).
  uint64_t quantum_steps = 256;

  /// Wall-clock bound of one quantum in seconds (0 = steps-only). Also
  /// clamped by the task's remaining deadline, so a quantum never
  /// overshoots a deadline by more than one clock-read interval
  /// (StepLimits::deadline_seconds).
  double quantum_seconds = 0.002;
};

/// Per-Subscribe knobs (see docs/SERVING.md).
struct SubscribeOptions {
  /// Scheduler to run on; null uses the process-wide Scheduler::Default().
  class Scheduler* scheduler = nullptr;

  /// Fair-queueing tenant this subscription bills to ("" is the default
  /// tenant). Runnable tasks are served per-tenant by stride scheduling:
  /// every backlogged tenant receives an equal share of quanta.
  std::string tenant;

  /// Whole-subscription deadline in seconds from Subscribe (0 = none),
  /// covering queueing, search AND delivery. Enforced by the scheduler:
  /// an expired task is cancelled — its context released warm, its sink
  /// told OnComplete(kDeadlineExpired, partial metrics) — without any
  /// caller involvement.
  double deadline_seconds = 0;

  /// Delivery credits: how many answers may be pushed to the sink
  /// before the subscription must be topped up with
  /// Subscription::AddCredits. The search itself keeps running (its
  /// output is bounded by k); once it finishes with undelivered
  /// answers, the task detaches into compact StreamState and holds no
  /// context while it waits. kUnlimitedCredits = push everything.
  uint64_t answer_credits = kUnlimitedCredits;
};

/// Everything the scheduler needs to run one search as a task.
/// Engine::Subscribe fills this; embedders with their own searchers can
/// submit directly.
struct TaskSpec {
  std::unique_ptr<Searcher> searcher;           // owns options/algorithm
  std::vector<std::vector<NodeId>> origins;     // resolved origin sets
  AnswerSink* sink = nullptr;                   // outlives the task
  std::string tenant;
  double deadline_seconds = 0;
  uint64_t answer_credits = kUnlimitedCredits;
  /// Engine-epoch hold (docs/UPDATES.md): keeps the snapshot the
  /// searcher was built against alive for the task's whole life —
  /// through admission queueing and credit waits —
  /// released in the terminal transition alongside the context detach.
  EpochPin epoch_pin;
};

class Scheduler;

/// Caller-side handle to one submitted search. Movable and copyable
/// (shared state); an empty handle (default-constructed) is inert.
/// Destroying the handle does NOT cancel the task — the sink still
/// receives every answer and the terminal OnComplete.
class Subscription {
 public:
  Subscription() = default;

  /// How admission control classified the Submit.
  AdmissionState admission() const;

  /// kPending until the terminal OnComplete fired.
  SubscribeStatus status() const;

  /// True once the terminal status is set (OnComplete delivered).
  bool finished() const;

  /// Requests cancellation; the scheduler finishes the task with
  /// kCancelled at its next scheduling decision (a quantum in flight
  /// completes first). Idempotent; no-op after a terminal status.
  void Cancel();

  /// Adds delivery credits (no-op on unlimited-credit subscriptions and
  /// after a terminal status). Wakes the scheduler if delivery stalled.
  void AddCredits(uint64_t n);

  /// Blocks until the terminal status; returns it. The terminal
  /// OnComplete has run by the time this returns, so the sink may be
  /// destroyed afterwards. Requires scheduler workers (or another
  /// thread pumping DriveOne) to make progress.
  SubscribeStatus Wait();

  /// Answers delivered to the sink so far.
  size_t answers_delivered() const;

  uint64_t id() const;
  explicit operator bool() const { return task_ != nullptr; }

 private:
  friend class Scheduler;
  struct Task;
  Subscription(Scheduler* scheduler, std::shared_ptr<Task> task)
      : scheduler_(scheduler), task_(std::move(task)) {}

  Scheduler* scheduler_ = nullptr;
  std::shared_ptr<Task> task_;
};

/// Cooperative scheduler multiplexing many in-flight searches over a
/// fixed worker pool — the serving core (docs/SERVING.md has the user
/// contract, docs/ARCHITECTURE.md the layer map).
///
/// PR 5 made every search a resumable state machine; a search is
/// therefore already a coroutine, and one scheduling quantum is just
/// `Searcher::Resume` under a small StepLimits budget. The scheduler
/// owns the loop around that: per-tenant fair queueing (stride
/// scheduling over runnable tasks), admission control with queue-depth
/// backpressure, scheduler-enforced deadlines, and context
/// detach/re-attach so idle tasks hold compact StreamState instead of a
/// leased SearchContext:
///
///  * a task WAITING FOR ADMISSION holds nothing but its spec;
///  * a task acquires its pooled SearchContext at its first quantum
///    (attach) and keeps it between quanta while the search runs; a
///    quantum on a paged graph reads the pages it misses on its worker,
///    like any other BufferPool::Pin;
///  * at search completion — or cancel/deadline — the StreamState is
///    moved out and the context released warm (detach), so a task
///    waiting for sink credit with undelivered answers holds only that
///    compact buffer.
///
/// Delivery: after each quantum the executing worker pushes newly
/// released answers to the task's sink, in release order, up to the
/// available credits. Until a task has released its first answer, its
/// quantum also ends at that release, so the first answer reaches the
/// sink without waiting out the rest of the quantum. A task's callbacks
/// never run concurrently.
///
/// Determinism: the scheduler never changes what a search computes —
/// quanta only decide when Resume returns — so the delivered answer
/// sequence is byte-identical to the drained Engine::Query, per the
/// streaming prefix-equivalence contract (src/README.md).
class Scheduler {
 public:
  /// Scheduler::Stats snapshot (see Snapshot()).
  struct TenantStats {
    std::string tenant;
    uint64_t quanta = 0;     // service received (quanta executed)
    uint64_t answers = 0;    // answers delivered
    size_t open_tasks = 0;   // live subscriptions billed to this tenant
  };
  struct Stats {
    // Depths (instantaneous).
    size_t runnable = 0;         // in a tenant run queue
    size_t executing = 0;        // a worker is running their quantum
    size_t admission_queued = 0; // waiting for a run slot; no context
    size_t credit_waiting = 0;   // search done, delivery stalled; no context
    size_t page_waiting = 0;     // always 0: no task parks on a page read
    size_t contexts_attached = 0;  // tasks currently holding a pool lease
    // Epoch-pin gauges (instantaneous): how many distinct engine epochs
    // open tasks hold pins on, and the oldest such epoch (0 when none).
    // Parked tasks — admission-queued, credit-waiting — count here even
    // though they hold zero context leases: the pin lives exactly as
    // long as the task, so oldest_live_epoch bounds which snapshots
    // update reclamation can free.
    size_t pinned_epochs = 0;
    uint64_t oldest_live_epoch = 0;
    // Cumulative counters.
    uint64_t quanta = 0;
    uint64_t answers_delivered = 0;
    uint64_t submitted = 0;
    uint64_t admitted = 0;   // got a slot at Submit time
    uint64_t queued = 0;     // entered the admission queue
    uint64_t rejected = 0;   // refused by queue-depth backpressure
    uint64_t completed = 0;
    uint64_t deadline_expired = 0;
    uint64_t cancelled = 0;
    uint64_t page_waits = 0;  // quanta whose search read a page on the
                              // worker (its page_misses grew)
    uint64_t io_errors = 0;   // tasks finished kIoError (failed page read)
    std::vector<TenantStats> tenants;  // sorted by tenant name
  };

  explicit Scheduler(const SchedulerOptions& options = {});

  /// Stops the workers, then finishes every still-open task with
  /// kShutdown (each sink gets its terminal OnComplete, on this
  /// thread). Outstanding Subscription handles stay valid afterwards
  /// (they only read shared task state) but the scheduler itself must
  /// outlive any Wait/Cancel/AddCredits call.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Process-wide default scheduler (auto worker count), used when
  /// SubscribeOptions::scheduler is null. Never destroyed.
  static Scheduler& Default();

  /// Registers a search as a schedulable task. Admission control runs
  /// here: kAdmitted tasks own a run slot immediately, kQueued tasks
  /// wait (holding no context), kRejected tasks are terminal before
  /// Submit returns (OnComplete(kRejected) fires on this thread).
  Subscription Submit(TaskSpec spec);

  /// Runs one scheduling step on the calling thread: sweep expired and
  /// cancelled tasks, promote from the admission queue, execute one
  /// quantum (or one delivery slice) of the fairest runnable task.
  /// Returns false when there was nothing to do. This is the whole
  /// scheduler loop — worker threads just call it repeatedly — so
  /// manual-drive embedders (num_workers = 0) get identical behavior,
  /// deterministically, one call at a time.
  bool DriveOne();

  /// Consistent snapshot of queue depths, quanta and per-tenant service
  /// counters.
  Stats Snapshot() const;

  size_t num_workers() const { return workers_.size(); }

  /// The pool run slots lease contexts from. The scheduler owns it:
  /// every task on this scheduler leases from it — in-process
  /// subscriptions and wire requests alike — so they all keep one set
  /// of contexts warm.
  SearchContextPool& context_pool() { return pool_; }

 private:
  friend class Subscription;
  using Task = Subscription::Task;

  struct Tenant {
    uint64_t pass = 0;  // stride virtual time; min pass runs next
    uint64_t quanta = 0;
    uint64_t answers = 0;
    size_t open = 0;  // live (non-terminal) tasks
    std::deque<std::shared_ptr<Task>> runnable;
  };

  void WorkerLoop();
  /// One scheduling step with mu_ held (unlocks around callbacks).
  bool RunOneLocked(std::unique_lock<std::mutex>& lock);
  /// Drains the cancel queue and pops due deadlines off the front of
  /// deadlines_ (not a scan of open tasks). Finishes every
  /// cancelled/expired non-executing task. True if any finished.
  bool SweepLocked(std::unique_lock<std::mutex>& lock);
  /// Moves admission-queue tasks into run slots while slots are free.
  void PromoteLocked();
  /// Pops the fairest runnable task (min tenant pass), charges the
  /// tenant's stride, marks it executing. Null when none runnable.
  std::shared_ptr<Task> PickLocked();
  /// Executes one quantum + delivery for a picked task.
  void ExecuteLocked(std::unique_lock<std::mutex>& lock,
                     const std::shared_ptr<Task>& task);
  /// Delivers released answers up to the available credits; toggles the
  /// lock around sink calls. Returns with the lock held.
  void DeliverLocked(std::unique_lock<std::mutex>& lock,
                     const std::shared_ptr<Task>& task);
  /// Terminal transition: detaches the context (kept warm), updates
  /// counters, removes the task from every structure. The caller must
  /// fire OnComplete after unlocking (CompleteOutside).
  void FinishLocked(const std::shared_ptr<Task>& task,
                    SubscribeStatus status);
  /// Fires the terminal OnComplete + finish notification (lock NOT held).
  void CompleteOutside(const std::shared_ptr<Task>& task);
  void EnqueueLocked(const std::shared_ptr<Task>& task);
  /// Moves the search state out of the task's leased context and
  /// releases the lease (warm) + its run slot.
  void DetachLocked(const std::shared_ptr<Task>& task);
  double NowSeconds() const { return epoch_.ElapsedSeconds(); }

  const SchedulerOptions options_;
  SearchContextPool pool_;
  Timer epoch_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;    // workers: new work / cancel / credit
  std::condition_variable finish_cv_;  // Subscription::Wait
  bool stop_ = false;
  uint64_t next_id_ = 1;
  size_t slots_used_ = 0;  // tasks holding (or promised) a context lease
  uint64_t global_pass_ = 0;  // virtual time: pass of the last picked tenant
  std::deque<std::shared_ptr<Task>> admission_queue_;
  std::map<std::string, Tenant> tenants_;
  std::vector<std::shared_ptr<Task>> open_;  // all non-terminal tasks
  // Cancellation is push-based: Subscription::Cancel enqueues the task
  // here, so the sweep never scans open_ looking for cancel flags.
  std::deque<std::shared_ptr<Task>> cancel_queue_;
  // Open tasks with a deadline, keyed (deadline_at, id) so begin() is
  // the next to expire. Submit inserts, FinishLocked erases, the sweep
  // pops due keys and idle workers sleep until begin()'s deadline.
  std::map<std::pair<double, uint64_t>, std::shared_ptr<Task>> deadlines_;
  Stats counters_;  // cumulative fields only; depths computed on demand
  std::vector<std::thread> workers_;
};

}  // namespace banks

#endif  // BANKS_SERVE_SCHEDULER_H_
