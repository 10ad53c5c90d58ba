#ifndef BANKS_BENCH_E2E_WORKLOAD_H_
#define BANKS_BENCH_E2E_WORKLOAD_H_

// Workload specs and seeded schedules of banks_bench (README.md has the
// reasons behind each workload). Everything a run offers the system —
// the query pool, arrival times, algorithm draws and update batches —
// is derived here from the workload seed; the dataset seed is fixed.

#include <cstdint>
#include <string>
#include <vector>

#include "banks/engine.h"
#include "datasets/workload.h"
#include "relational/database.h"
#include "search/options.h"
#include "search/searcher.h"

namespace banks::e2e {

/// Closed: each of kClosedStreams connections sends its next request when
/// its previous one completes. Open: requests are sent on a precomputed
/// schedule over all kConnections connections.
enum class Traffic { kClosed, kOpen };

/// One rate step of the measured window.
struct Step {
  double multiplier;  // of WorkloadSpec::rate_qps
  double share;       // of the window
};

/// Frozen parameters of one workload. Rates are absolute q/s measured on
/// the seed commit (README.md, "Frozen parameters") and never recalibrated
/// per run.
struct WorkloadSpec {
  const char* name;
  Traffic traffic;
  /// Open loop: the base rate R in q/s that the ladder multiplies.
  double rate_qps;
  /// The window's rate steps, in order; the warm-up runs at the first.
  std::vector<Step> ladder;
  /// Ladder step whose requests give the reported latency metrics.
  size_t measured_step;
  /// 10% Bidirectional / 45% SI / 45% MI, exact counts per ladder step;
  /// otherwise Bidirectional only.
  /// Open loops draw keyword sets uniformly from the pool; closed loops
  /// send each pool entry once, in seeded order.
  bool algorithm_mix;
  BoundMode bound;
  /// Serve from a PagedStore (clustered layout, inline runs <= 96 bytes,
  /// buffer pool = kPagedPoolShare of the in-RAM graph bytes).
  bool paged;
  /// Update batches per second applied by one writer thread (0 = none).
  double update_rate;
  /// Rung-3 (inline) sample size of the traced run.
  size_t inline_sample;
};

/// The four workloads, by name. Null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

inline constexpr size_t kConnections = 4;
/// Requests a closed loop keeps in flight: one fewer than the baseline
/// machine's 4 cores, so the generator and the server's loop thread need
/// not preempt a search. With 4, tight-closed spread about twice as
/// widely (README.md, "Design choices").
inline constexpr size_t kClosedStreams = 3;
inline constexpr size_t kTopK = 10;
inline constexpr uint64_t kMaxNodesExplored = 100'000;
/// paged-open's buffer pool, as a share of
/// `Graph::ComputeMemoryUsage().total_bytes()`. At 5% the pool thrashed:
/// each query parked about 300 times on a page fetch, and the chain of
/// thread wake-ups behind every park turned the host's slow phases into
/// latency swings wider than the bounds (README.md, "Frozen parameters").
inline constexpr double kPagedPoolShare = 0.25;
/// Size of the burst that fills the context pool before an open loop:
/// the scheduler's default run-slot count (SchedulerOptions::max_running).
inline constexpr size_t kPrefillBurst = 64;

/// Run geometry in seconds. The database is MakeDblpEnv(scale), whose
/// generator seed is fixed.
struct RunShape {
  double scale = 0.25;    // DBLP generator scale (30.7k nodes at 0.25)
  double warmup_s = 3;    // unmeasured, at the first ladder step's rate
  double window_s = 20;   // measured
};

/// One query of the schedule.
struct Op {
  int64_t due_ns = 0;  // offset from run start; unused (0) for closed loops
  uint32_t query = 0;  // index into Schedule::pool
  Algorithm algorithm = Algorithm::kBidirectional;
  uint8_t step = 0;    // ladder step (warm-up ops carry step 0)
};

/// One update batch of the writer stream.
struct UpdateOp {
  int64_t due_ns = 0;
  bool structural = false;
  UpdateBatch batch;
};

struct Schedule {
  std::vector<std::vector<std::string>> pool;  // distinct keyword sets
  std::vector<Op> ops;  // open: sorted by due_ns; closed: issue order
  /// read-write: the writer stream (sorted by due_ns). Other workloads:
  /// a short due-less probe stream the traced run applies inline.
  std::vector<UpdateOp> updates;
  int64_t warmup_ns = 0;
  int64_t window_ns = 0;
  /// Start of each ladder step, relative to run start, plus the end of
  /// the window as a final entry.
  std::vector<int64_t> step_start_ns;
  SearchOptions options;  // k, bound, node budget (algorithm per op)

  /// FNV-1a over everything above: equal seeds give equal hashes.
  uint64_t Hash() const;
  /// Share of the first `issued` ops (closed loops wrap around the op
  /// list) whose (keywords, algorithm) repeats an earlier one.
  double RepeatShare(size_t issued) const;
};

/// Builds the seeded schedule. `data` is `db`'s extracted graph: the
/// pool's keywords are categorized against its index by `thresholds`,
/// and the update stream stitches new nodes onto its nodes.
Schedule MakeSchedule(const WorkloadSpec& spec, const RunShape& shape,
                      uint64_t seed, Database* db, const DataGraph& data,
                      const FreqThresholds& thresholds);

/// A schedule over `schedule`'s pool and options whose ops are all due
/// at once, with no warm-up or window.
Schedule Burst(const Schedule& schedule, std::vector<Op> ops);

/// kPrefillBurst Bidirectional requests over the first pool entries.
/// Open loops send them and wait them out before the warm-up: every run
/// slot then holds a context sized by the heaviest algorithm, so the
/// server's context pool (which never shrinks) is at its bound and peak
/// memory measures the system, not whichever burst a seed's arrivals
/// happened to contain.
Schedule PrefillSchedule(const Schedule& schedule);

}  // namespace banks::e2e

#endif  // BANKS_BENCH_E2E_WORKLOAD_H_
