// Live-graph microbenchmark: update throughput and query latency under
// concurrent writes (docs/UPDATES.md).
//
// Engine::ApplyUpdate publishes each append-only batch as a new epoch
// snapshot, so its two interesting numbers are (a) how fast the writer
// can turn batches into epochs and (b) what that write stream does to
// reader latency. Rows, on a §5.4 DBLP generator graph:
//
//   apply / structural         — batches adding nodes+edges, prestige
//                                recomputed per publish (the default
//                                engine configuration);
//   apply / structural-uniform — same batches with compute_prestige
//                                off: the overlay-only publish cost;
//   apply / posting-only       — text-append batches (no structure
//                                change, prestige carried forward);
//   query / baseline           — closed-loop Engine::Query latency on
//                                a quiescent engine;
//   query / under-writes       — the same closed loop while a writer
//                                thread applies structural+posting
//                                batches back-to-back. Also reports the
//                                achieved concurrent updates/sec and
//                                the epoch lag: how many epochs were
//                                published while each query ran (how
//                                stale its snapshot was by completion).
//
// Built-in checks (exit nonzero on violation): epochs advance exactly
// once per batch, posting-only batches leave the structure epoch alone,
// and every measured query's scores are non-increasing.
//
// --json emits the measurements for the CI bench-smoke artifact
// (BENCH_update.json); ms_per_query is the mean ms per ApplyUpdate for
// apply rows and the p50 query latency for query rows — the field
// compare_baseline.py treats as a latency metric.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "banks/engine.h"
#include "bench_alloc.h"
#include "bench_common.h"
#include "datasets/workload.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace banks::bench {
namespace {

constexpr size_t kQueryRepetitions = 4;

/// Keyword queries of the benchmark stream. Kept as keywords (not
/// pre-resolved origins) so every Query call runs the full per-snapshot
/// path — resolve rides on whatever epoch the query pins.
std::vector<std::vector<std::string>> MakeQueries(BenchEnv* env,
                                                  const Engine& engine) {
  WorkloadGenerator gen(&env->db, &env->dg);
  WorkloadOptions wopt;
  wopt.num_queries = 8;
  wopt.answer_size = 4;
  wopt.thresholds = env->thresholds;
  wopt.categories = {FreqCategory::kTiny, FreqCategory::kSmall};
  wopt.seed = 97;
  std::vector<std::vector<std::string>> queries;
  for (const WorkloadQuery& q : gen.Generate(wopt)) {
    std::vector<std::vector<NodeId>> origins = engine.Resolve(q.keywords);
    bool all_matched = !origins.empty();
    for (const auto& s : origins) all_matched &= !s.empty();
    if (all_matched) queries.push_back(q.keywords);
  }
  return queries;
}

/// Deterministic update-batch stream. Structural batches add two typed
/// nodes (with indexed text drawn from the query vocabulary, so posting
/// overlays grow on terms the readers actually search) and a handful of
/// edges stitching them into the existing graph; posting-only batches
/// append vocabulary text to existing nodes.
class BatchStream {
 public:
  BatchStream(uint64_t seed, size_t base_nodes,
              std::vector<std::string> vocab)
      : rng_(seed), base_nodes_(base_nodes), vocab_(std::move(vocab)) {
    if (vocab_.empty()) vocab_.push_back("live");
  }

  UpdateBatch Structural() {
    UpdateBatch b;
    NodeId first = static_cast<NodeId>(base_nodes_ + grown_);
    for (int i = 0; i < 2; ++i) {
      UpdateBatch::NewNode n;
      n.type = "paper";
      n.label = "live-" + std::to_string(first + static_cast<NodeId>(i));
      n.text = Word() + " live";
      b.nodes.push_back(std::move(n));
    }
    for (int i = 0; i < 6; ++i) {
      UpdateBatch::NewEdge e;
      e.u = (i < 2) ? first + static_cast<NodeId>(i) : ExistingNode();
      e.v = ExistingNode();
      if (e.v == e.u) e.v = (e.v + 1) % base_nodes_;
      e.weight = 1.0 + static_cast<double>(rng_() % 4);
      b.edges.push_back(e);
    }
    grown_ += 2;
    return b;
  }

  UpdateBatch PostingOnly() {
    UpdateBatch b;
    for (int i = 0; i < 2; ++i) {
      UpdateBatch::NewText t;
      t.node = ExistingNode();
      t.text = Word();
      b.texts.push_back(std::move(t));
    }
    return b;
  }

 private:
  NodeId ExistingNode() {
    return static_cast<NodeId>(rng_() % (base_nodes_ + grown_));
  }
  const std::string& Word() { return vocab_[rng_() % vocab_.size()]; }

  std::mt19937 rng_;
  size_t base_nodes_;
  size_t grown_ = 0;
  std::vector<std::string> vocab_;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = p * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

bool ScoresNonIncreasing(const SearchResult& r) {
  for (size_t i = 1; i < r.answers.size(); ++i) {
    if (r.answers[i].score > r.answers[i - 1].score + 1e-12) return false;
  }
  return true;
}

struct ApplyRow {
  double ms_per_update = 0;
  double updates_per_second = 0;
  size_t batches = 0;
  uint64_t epoch = 0;
  uint64_t structure_epoch = 0;
};

/// Applies `count` batches from a fresh stream to a fresh engine copy
/// and times the loop. `structural` selects the batch shape.
ApplyRow RunApplyLoop(const DataGraph& dg, const EngineOptions& options,
                      const std::vector<std::string>& vocab, bool structural,
                      size_t count, bool* ok) {
  Engine engine(dg, options);
  BatchStream stream(structural ? 11 : 13, dg.graph.num_nodes(), vocab);
  std::vector<UpdateBatch> batches;
  batches.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    batches.push_back(structural ? stream.Structural()
                                 : stream.PostingOnly());
  }
  Timer timer;
  for (const UpdateBatch& b : batches) engine.ApplyUpdate(b);
  double wall = timer.ElapsedSeconds();

  ApplyRow row;
  row.batches = count;
  row.ms_per_update = 1e3 * wall / static_cast<double>(count);
  row.updates_per_second = SafeRatio(static_cast<double>(count), wall);
  row.epoch = engine.epoch();
  row.structure_epoch = engine.structure_epoch();
  // Epoch bookkeeping contract: one epoch per batch; the structure
  // epoch moves only with structural batches.
  if (row.epoch != count) *ok = false;
  if (row.structure_epoch != (structural ? count : 0)) *ok = false;
  return row;
}

struct QueryRow {
  double p50_ms = 0;
  double p95_ms = 0;
  double qps = 0;
  double updates_per_second = 0;  // writer-side, under-writes only
  double epoch_lag_mean = 0;
  uint64_t epoch_lag_max = 0;
};

/// One closed-loop pass over the query set (kQueryRepetitions times).
/// When `writes` is true a writer thread applies alternating structural
/// and posting-only batches back-to-back for the duration.
QueryRow RunQueryLoop(Engine* engine,
                      const std::vector<std::vector<std::string>>& queries,
                      const std::vector<std::string>& vocab, bool writes,
                      bool* ok) {
  SearchOptions options;
  options.k = 10;
  options.max_nodes_explored = 100'000;

  std::atomic<bool> stop{false};
  std::atomic<size_t> applied{0};
  double writer_wall = 0;
  std::thread writer;
  if (writes) {
    writer = std::thread([&] {
      BatchStream stream(29, engine->graph().num_nodes(), vocab);
      Timer timer;
      while (!stop.load(std::memory_order_relaxed)) {
        engine->ApplyUpdate(applied.load(std::memory_order_relaxed) % 2 == 0
                                ? stream.Structural()
                                : stream.PostingOnly());
        applied.fetch_add(1, std::memory_order_relaxed);
      }
      writer_wall = timer.ElapsedSeconds();
    });
  }

  QueryRow row;
  std::vector<double> latencies;
  std::vector<uint64_t> lags;
  SearchContext context;
  Timer wall;
  for (size_t rep = 0; rep < kQueryRepetitions; ++rep) {
    for (const auto& keywords : queries) {
      uint64_t before = engine->epoch();
      Timer t;
      SearchResult r = engine->Query(keywords, Algorithm::kBidirectional,
                                     options, &context);
      latencies.push_back(t.ElapsedMillis());
      lags.push_back(engine->epoch() - before);
      if (!ScoresNonIncreasing(r)) *ok = false;
    }
  }
  double wall_seconds = wall.ElapsedSeconds();

  if (writes) {
    stop.store(true, std::memory_order_relaxed);
    writer.join();
    row.updates_per_second =
        SafeRatio(static_cast<double>(applied.load()), writer_wall);
  }
  row.p50_ms = Percentile(latencies, 0.50);
  row.p95_ms = Percentile(latencies, 0.95);
  row.qps = SafeRatio(static_cast<double>(latencies.size()), wall_seconds);
  uint64_t lag_sum = 0;
  for (uint64_t l : lags) {
    lag_sum += l;
    row.epoch_lag_max = std::max(row.epoch_lag_max, l);
  }
  row.epoch_lag_mean =
      SafeRatio(static_cast<double>(lag_sum), static_cast<double>(lags.size()));
  return row;
}

int Main(double scale, bool json) {
  if (!json) {
    std::printf("=== Live graph: update throughput & latency under writes "
                "===\n");
  }
  BenchEnv env = MakeDblpEnv(scale);
  Engine engine(env.dg, EngineOptions{});
  std::vector<std::vector<std::string>> queries = MakeQueries(&env, engine);
  if (queries.empty()) {
    std::fprintf(stderr, "no runnable queries generated\n");
    return 1;
  }
  std::vector<std::string> vocab;
  for (const auto& q : queries) {
    for (const auto& kw : q) vocab.push_back(kw);
  }
  if (!json) {
    std::printf("DBLP-like graph: %zu nodes / %zu edges, %zu queries x %zu "
                "reps per loop\n",
                env.dg.graph.num_nodes(), env.dg.graph.num_edges(),
                queries.size(), kQueryRepetitions);
  }

  bool ok = true;

  // --- Apply throughput (each loop gets its own engine copy) ---------
  EngineOptions with_prestige;
  EngineOptions uniform;
  uniform.compute_prestige = false;
  struct ApplyCase {
    const char* mode;
    ApplyRow row;
  };
  ApplyCase apply_cases[] = {
      {"structural",
       RunApplyLoop(env.dg, with_prestige, vocab, /*structural=*/true, 32,
                    &ok)},
      {"structural-uniform",
       RunApplyLoop(env.dg, uniform, vocab, /*structural=*/true, 64, &ok)},
      {"posting-only",
       RunApplyLoop(env.dg, with_prestige, vocab, /*structural=*/false, 64,
                    &ok)},
  };

  // --- Query latency: quiescent baseline, then under a writer -------
  struct QueryCase {
    const char* mode;
    QueryRow row;
  };
  QueryCase query_cases[] = {
      {"baseline",
       RunQueryLoop(&engine, queries, vocab, /*writes=*/false, &ok)},
      {"under-writes",
       RunQueryLoop(&engine, queries, vocab, /*writes=*/true, &ok)},
  };

  JsonWriter w;
  if (json) {
    w.BeginObject();
    w.Field("bench", "micro_update");
    w.Field("scale", scale);
    w.Field("graph_nodes", static_cast<uint64_t>(env.dg.graph.num_nodes()));
    w.Field("graph_edges", static_cast<uint64_t>(env.dg.graph.num_edges()));
    w.Key("rows");
    w.BeginArray();
    for (const ApplyCase& c : apply_cases) {
      w.BeginObject();
      w.Field("class", "apply");
      w.Field("mode", c.mode);
      w.Field("threads", static_cast<uint64_t>(1));
      // The baseline-compared latency headline: mean publish cost.
      w.Field("ms_per_query", c.row.ms_per_update);
      w.Field("updates_per_second", c.row.updates_per_second);
      w.Field("batches", static_cast<uint64_t>(c.row.batches));
      w.Field("final_epoch", c.row.epoch);
      w.Field("final_structure_epoch", c.row.structure_epoch);
      w.EndObject();
    }
    for (const QueryCase& c : query_cases) {
      w.BeginObject();
      w.Field("class", "query");
      w.Field("algorithm", "bidirectional");
      w.Field("mode", c.mode);
      w.Field("threads", static_cast<uint64_t>(1));
      w.Field("ms_per_query", c.row.p50_ms);
      w.Field("p50_ms", c.row.p50_ms);
      w.Field("p95_ms", c.row.p95_ms);
      w.Field("qps", c.row.qps);
      w.Field("updates_per_second", c.row.updates_per_second);
      w.Field("epoch_lag_mean", c.row.epoch_lag_mean);
      w.Field("epoch_lag_max", c.row.epoch_lag_max);
      w.EndObject();
    }
    w.EndArray();
    w.Field("checks_ok", ok);
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
  } else {
    TablePrinter apply_table(
        {"class", "mode", "ms/update", "updates/s", "epoch", "struct"});
    for (const ApplyCase& c : apply_cases) {
      apply_table.AddRow({"apply", c.mode,
                          TablePrinter::Fmt(c.row.ms_per_update, 3),
                          TablePrinter::Fmt(c.row.updates_per_second, 1),
                          std::to_string(c.row.epoch),
                          std::to_string(c.row.structure_epoch)});
    }
    TablePrinter query_table({"class", "mode", "p50 ms", "p95 ms", "qps",
                              "updates/s", "lag mean", "lag max"});
    for (const QueryCase& c : query_cases) {
      query_table.AddRow({"query", c.mode, TablePrinter::Fmt(c.row.p50_ms, 3),
                          TablePrinter::Fmt(c.row.p95_ms, 3),
                          TablePrinter::Fmt(c.row.qps, 1),
                          TablePrinter::Fmt(c.row.updates_per_second, 1),
                          TablePrinter::Fmt(c.row.epoch_lag_mean, 2),
                          std::to_string(c.row.epoch_lag_max)});
    }
    std::printf("\n");
    apply_table.Print(std::cout);
    std::printf("\n");
    query_table.Print(std::cout);
    std::printf(
        "\nepoch lag = epochs published while a query ran (snapshot\n"
        "staleness at completion). Checks: epoch bookkeeping, score\n"
        "monotonicity: %s\n",
        ok ? "ok" : "FAILED");
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace banks::bench

int main(int argc, char** argv) {
  double scale = 1.0;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      scale = std::atof(argv[i]);
      if (scale <= 0.0) {
        std::fprintf(stderr, "usage: %s [--json] [scale>0]  (got %s)\n",
                     argv[0], argv[i]);
        return 2;
      }
    }
  }
  return banks::bench::Main(scale, json);
}
