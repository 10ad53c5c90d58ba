#include "workload.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "datasets/workload.h"
#include "util/rng.h"

namespace banks::e2e {
namespace {

// Frozen base rates in q/s (README.md, "Frozen parameters").
constexpr double kRateInteractive = 240;  // R_int
constexpr double kRatePaged = 20;         // R_paged
constexpr double kRateReadWrite = 20;     // R_rw

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"tight-closed", Traffic::kClosed, 0, {{1.0, 1.0}}, 0,
       /*algorithm_mix=*/false, BoundMode::kTight, /*paged=*/false,
       /*update_rate=*/0, /*inline_sample=*/64},
      // The reported 0.7 step gets half the window: it carries the
      // latency metrics, the outer steps only bracket the SLO rate.
      {"interactive-open", Traffic::kOpen, kRateInteractive,
       {{0.5, 0.25}, {0.7, 0.5}, {0.9, 0.25}}, 1, true, BoundMode::kLoose,
       false, 0, 256},
      {"paged-open", Traffic::kOpen, kRatePaged, {{1.0, 1.0}}, 0, false,
       BoundMode::kLoose, true, 0, 256},
      // paged-open's read traffic, in RAM, under a writer. With the
      // interactive mix its millisecond latencies were mostly thread
      // wake-ups and spread past the bounds (README.md, "Design choices").
      {"read-write", Traffic::kOpen, kRateReadWrite, {{1.0, 1.0}}, 0, false,
       BoundMode::kLoose, false, 20, 256},
  };
  return specs;
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  Rng rng(seed ^ (salt * 0x9E3779B97F4A7C15ULL));
  return rng.Next();
}

/// Distinct 2-3 keyword sets (tiny..., small) from the §5.4 generator,
/// in seeded order. Ground truth is not needed, so CN evaluation stops
/// at the first relevant result.
std::vector<std::vector<std::string>> MakePool(
    Database* db, const DataGraph& data, const FreqThresholds& thresholds,
    size_t target, uint64_t seed) {
  WorkloadGenerator gen(db, &data);
  std::set<std::vector<std::string>> seen;
  std::vector<std::vector<std::string>> pool;
  for (size_t kw = 2; kw <= 3; ++kw) {
    WorkloadOptions w;
    w.num_queries = target / 2 + target / 8;  // headroom for duplicates
    w.answer_size = 4;
    w.thresholds = thresholds;
    w.categories.assign(kw, FreqCategory::kTiny);
    w.categories.back() = FreqCategory::kSmall;
    w.max_relevant_per_query = 1;
    w.seed = Mix(seed, kw);
    for (WorkloadQuery& q : gen.Generate(w)) {
      if (seen.insert(q.keywords).second) pool.push_back(std::move(q.keywords));
    }
  }
  Rng rng(Mix(seed, 101));
  rng.Shuffle(&pool);
  return pool;
}

/// Arrival times of a Poisson process on [start, start + dur) conditioned
/// on exactly round(rate * dur) arrivals (sorted uniform draws), so every
/// seed offers the same load with the same burst statistics.
std::vector<int64_t> Arrivals(double rate, int64_t start, int64_t dur,
                              Rng* rng) {
  const auto n = static_cast<size_t>(
      std::llround(rate * static_cast<double>(dur) * 1e-9));
  std::vector<int64_t> t(n);
  for (int64_t& x : t) {
    x = start + static_cast<int64_t>(rng->NextDouble() *
                                     static_cast<double>(dur));
  }
  std::sort(t.begin(), t.end());
  return t;
}

/// Structural batches add two typed nodes with indexed pool words and
/// six edges into the existing graph; posting-only batches append pool
/// words to existing nodes (micro_update's batch shapes).
class BatchStream {
 public:
  BatchStream(uint64_t seed, size_t base_nodes,
              const std::vector<std::vector<std::string>>& pool)
      : rng_(seed), base_nodes_(base_nodes) {
    for (const auto& q : pool) vocab_.insert(vocab_.end(), q.begin(), q.end());
    if (vocab_.empty()) vocab_.push_back("live");
  }

  UpdateBatch Structural() {
    UpdateBatch b;
    const auto first = static_cast<NodeId>(base_nodes_ + grown_);
    for (NodeId i = 0; i < 2; ++i) {
      b.nodes.push_back({"paper", "live-" + std::to_string(first + i),
                         Word() + " live"});
    }
    for (int i = 0; i < 6; ++i) {
      UpdateBatch::NewEdge e;
      e.u = i < 2 ? first + static_cast<NodeId>(i) : ExistingNode();
      e.v = ExistingNode();
      if (e.v == e.u) e.v = static_cast<NodeId>((e.v + 1) % base_nodes_);
      e.weight = 1.0 + static_cast<double>(rng_.Below(4));
      b.edges.push_back(e);
    }
    grown_ += 2;
    return b;
  }

  UpdateBatch PostingOnly() {
    UpdateBatch b;
    for (int i = 0; i < 2; ++i) b.texts.push_back({ExistingNode(), Word()});
    return b;
  }

 private:
  NodeId ExistingNode() {
    return static_cast<NodeId>(rng_.Below(base_nodes_ + grown_));
  }
  const std::string& Word() { return vocab_[rng_.Below(vocab_.size())]; }

  Rng rng_;
  size_t base_nodes_;
  size_t grown_ = 0;
  std::vector<std::string> vocab_;
};

class Fnv {
 public:
  void Bytes(const void* p, size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ c[i]) * 1099511628211ULL;
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof v);
  }
  void Str(const std::string& s) {
    Pod(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : Specs()) names.push_back(s.name);
  return names;
}

Schedule MakeSchedule(const WorkloadSpec& spec, const RunShape& shape,
                      uint64_t seed, Database* db, const DataGraph& data,
                      const FreqThresholds& thresholds) {
  Schedule s;
  s.options.k = kTopK;
  s.options.bound = spec.bound;
  s.options.max_nodes_explored = kMaxNodesExplored;
  s.warmup_ns = static_cast<int64_t>(shape.warmup_s * 1e9);
  s.window_ns = static_cast<int64_t>(shape.window_s * 1e9);
  double elapsed_share = 0;
  for (const Step& step : spec.ladder) {
    s.step_start_ns.push_back(
        s.warmup_ns +
        static_cast<int64_t>(elapsed_share * static_cast<double>(s.window_ns)));
    elapsed_share += step.share;
  }
  s.step_start_ns.push_back(s.warmup_ns + s.window_ns);

  // A closed loop never repeats a keyword set, so its pool must outlast
  // the run; open loops draw from a fixed pool of >= 1024.
  s.pool = MakePool(db, data, thresholds,
                    spec.traffic == Traffic::kClosed ? 2048 : 1024,
                    Mix(seed, 1));

  Rng rng(Mix(seed, 2));
  // The algorithms of n requests in seeded order. The mix is 10%
  // Bidirectional, 45% SI, 45% MI: p50 then lies inside the cheap SI/MI
  // latency mode and p95 inside the Bidirectional one (with half the
  // requests in each mode the median sat in the gap between them). The
  // counts are exact, like the arrival counts: p95 is about the median
  // of the Bidirectional requests, and a count drawn per request moved
  // it by several percent from seed to seed.
  auto algorithms = [&](size_t n) {
    std::vector<Algorithm> a(n, Algorithm::kBidirectional);
    if (spec.algorithm_mix) {
      const auto share = [n](double s) {
        return static_cast<size_t>(std::llround(s * static_cast<double>(n)));
      };
      const size_t bidirectional = share(0.10), si_end = share(0.55);
      for (size_t i = bidirectional; i < n; ++i) {
        a[i] = i < si_end ? Algorithm::kBackwardSI : Algorithm::kBackwardMI;
      }
      rng.Shuffle(&a);
    }
    return a;
  };
  if (spec.traffic == Traffic::kClosed) {
    const std::vector<Algorithm> a = algorithms(s.pool.size());
    for (uint32_t q = 0; q < s.pool.size(); ++q) {
      s.ops.push_back({0, q, a[q], 0});
    }
  } else if (!s.pool.empty()) {
    // Uniform draws: with thousands of requests over the pool most of
    // them repeat, yet no single seed-chosen keyword set dominates the
    // offered work (README.md, "Design choices").
    auto segment = [&](double multiplier, int64_t start, int64_t dur,
                       uint8_t step) {
      const std::vector<int64_t> due =
          Arrivals(spec.rate_qps * multiplier, start, dur, &rng);
      const std::vector<Algorithm> a = algorithms(due.size());
      for (size_t i = 0; i < due.size(); ++i) {
        const auto q = static_cast<uint32_t>(rng.Below(s.pool.size()));
        s.ops.push_back({due[i], q, a[i], step});
      }
    };
    segment(spec.ladder[0].multiplier, 0, s.warmup_ns, 0);
    for (size_t i = 0; i < spec.ladder.size(); ++i) {
      segment(spec.ladder[i].multiplier, s.step_start_ns[i],
              s.step_start_ns[i + 1] - s.step_start_ns[i],
              static_cast<uint8_t>(i));
    }
  }

  BatchStream batches(Mix(seed, 3), data.graph.num_nodes(), s.pool);
  std::vector<int64_t> update_due;
  if (spec.update_rate > 0) {
    Rng update_rng(Mix(seed, 4));
    update_due = Arrivals(spec.update_rate, 0, s.warmup_ns + s.window_ns,
                          &update_rng);
  } else {
    update_due.assign(16, 0);  // the traced run's inline write probe
  }
  for (size_t i = 0; i < update_due.size(); ++i) {
    const bool structural = i % 2 == 0;
    s.updates.push_back({update_due[i], structural,
                         structural ? batches.Structural()
                                    : batches.PostingOnly()});
  }
  return s;
}

Schedule Burst(const Schedule& schedule, std::vector<Op> ops) {
  Schedule s;
  s.pool = schedule.pool;
  s.options = schedule.options;
  s.step_start_ns = {0, 0};
  s.ops = std::move(ops);
  for (Op& op : s.ops) op.due_ns = 0;
  return s;
}

Schedule PrefillSchedule(const Schedule& schedule) {
  std::vector<Op> ops;
  for (size_t i = 0; i < kPrefillBurst && !schedule.pool.empty(); ++i) {
    ops.push_back({0, static_cast<uint32_t>(i % schedule.pool.size()),
                   Algorithm::kBidirectional, 0});
  }
  return Burst(schedule, std::move(ops));
}

uint64_t Schedule::Hash() const {
  Fnv h;
  for (const auto& q : pool) {
    h.Pod(q.size());
    for (const std::string& w : q) h.Str(w);
  }
  for (const Op& op : ops) {
    h.Pod(op.due_ns);
    h.Pod(op.query);
    h.Pod(op.algorithm);
    h.Pod(op.step);
  }
  for (const UpdateOp& u : updates) {
    h.Pod(u.due_ns);
    h.Pod(u.structural);
    for (const auto& n : u.batch.nodes) {
      h.Str(n.type);
      h.Str(n.label);
      h.Str(n.text);
    }
    for (const auto& e : u.batch.edges) {
      h.Pod(e.u);
      h.Pod(e.v);
      h.Pod(e.weight);
    }
    for (const auto& t : u.batch.texts) {
      h.Pod(t.node);
      h.Str(t.text);
    }
  }
  h.Pod(warmup_ns);
  h.Pod(window_ns);
  for (int64_t t : step_start_ns) h.Pod(t);
  h.Pod(options.k);
  h.Pod(options.bound);
  h.Pod(options.max_nodes_explored);
  return h.value();
}

double Schedule::RepeatShare(size_t issued) const {
  if (issued == 0 || ops.empty()) return 0;
  std::set<std::pair<uint32_t, Algorithm>> seen;
  size_t repeats = 0;
  for (size_t i = 0; i < issued; ++i) {
    const Op& op = ops[i % ops.size()];
    if (!seen.insert({op.query, op.algorithm}).second) ++repeats;
  }
  return static_cast<double>(repeats) / static_cast<double>(issued);
}

}  // namespace banks::e2e
