// banks_bench — end-to-end benchmark of the BANKS keyword-search server
// (README.md in this directory is the user guide and metric glossary).
//
// One run builds the fixed-seed DBLP graph, hosts an Engine behind a
// net::Server in this process, and drives it over loopback TCP from one
// load-generator thread with the seeded schedule of one workload. It
// prints every metric as "name value unit", checks the answers, and with
// --json ends with one JSON record line. --trace=PATH adds the layer
// ladder: the same schedule in-process (Engine::Subscribe) and a sample
// run inline (Resolve + QueryResolved), plus spans written to PATH.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "banks/engine.h"
#include "bench_common.h"
#include "loadgen.h"
#include "net/server.h"
#include "prestige/pagerank.h"
#include "storage/paged_store.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload.h"

#ifndef BANKS_BENCH_BUILD_TYPE
#define BANKS_BENCH_BUILD_TYPE "unknown"
#endif

namespace banks::e2e {
namespace {

// One set-up takes ~45-85 ms at scale 0.25. On a shared 4-vCPU VM the
// host switches between phases in which memory-bound work runs at full
// speed or ~1.6x slower, each lasting from a fraction of a second to
// minutes, so set-ups timed back to back all land in one phase. They are
// timed in three rounds at different moments of the run (before the
// load, after the window, after the checks); `setup_s` is the mean of
// the rounds' medians. The median drops single slow set-ups, the mean
// over rounds averages the phases.
constexpr size_t kSetupsPerRound = 5;
constexpr size_t kCheckSample = 128;
constexpr size_t kQuiescedChecks = 64;
constexpr double kSloP95Ms = 250;
constexpr double kMaxSchedLagMs = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  std::string trace_path;
  std::string work_dir = ".";
  bool json = false;
  bool smoke = false;
  bool schedule_hash = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    auto need = [&] {
      if (eq == std::string::npos && i + 1 < argc) value = argv[++i];
      return !value.empty();
    };
    if (arg == "--json") {
      a->json = true;
    } else if (arg == "--smoke") {
      a->smoke = true;
    } else if (arg == "--schedule-hash") {
      a->schedule_hash = true;
    } else if (arg == "--workload" && need()) {
      a->workload = value;
    } else if (arg == "--seed" && need()) {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds" && need()) {
      a->seconds = std::atof(value.c_str());
    } else if (arg == "--trace" && need()) {
      a->trace_path = value;
    } else if (arg == "--work-dir" && need()) {
      a->work_dir = value;
    } else {
      return false;
    }
  }
  return FindWorkload(a->workload) != nullptr && a->seconds > 0;
}

// ---- Statistics -------------------------------------------------------------

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Metrics in print order, each with its unit.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, std::isfinite(value) ? value : 0, unit});
  }
  void Print() const {
    for (const Item& m : items_) {
      std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
  std::string Json() const {
    std::string out = "{";
    for (const Item& m : items_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      if (out.size() > 1) out += ',';
      out += "\"" + m.name + "\":{\"value\":" + buf + ",\"unit\":\"" + m.unit +
             "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

// ---- Machine fingerprint ----------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string LoadAvg() {
  std::ifstream in("/proc/loadavg");
  double a = 0, b = 0, c = 0;
  in >> a >> b >> c;
  char buf[96];
  std::snprintf(buf, sizeof buf, "[%.2f,%.2f,%.2f]", a, b, c);
  return buf;
}

/// Median time of a fixed integer loop: a drift between two runs of one
/// machine class says the CPU itself was slower (contention, throttling).
double CpuCalibrationMs() {
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    Timer t;
    uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    ms.push_back(t.ElapsedMillis());
    if (x == 42) std::printf("#\n");  // keeps the loop observable
  }
  return Percentile(ms, 0.5);
}

// ---- Setup ------------------------------------------------------------------

/// One hosted system. Members are destroyed bottom-up: the server and
/// scheduler stop before the engines they run on go away.
struct Served {
  std::unique_ptr<Engine> ram;    // in-RAM engine: serves, or the reference
  std::unique_ptr<Engine> paged;  // paged-open: engine over the PagedStore
  std::shared_ptr<PagedStore> store;
  std::unique_ptr<Scheduler> scheduler;  // in-process rung
  std::unique_ptr<net::Server> server;   // wire rung

  Engine& engine() { return paged != nullptr ? *paged : *ram; }
};

/// Everything between the generated Database and a ready server (or
/// scheduler): graph extraction, PageRank and index, and for paged-open
/// Save + Open + Engine. Null on failure.
std::unique_ptr<Served> Setup(const Database& db, const WorkloadSpec& spec,
                              const std::string& store_path, bool wire) {
  auto s = std::make_unique<Served>();
  s->ram = std::make_unique<Engine>(BuildDataGraph(db));
  if (spec.paged) {
    PagedStoreOptions save;
    save.inline_run_bytes = 96;
    save.layout = PageLayout::kClustered;
    if (!PagedStore::Save(s->ram->data(), s->ram->prestige(), store_path,
                          save)) {
      std::fprintf(stderr, "banks_bench: cannot write %s\n",
                   store_path.c_str());
      return nullptr;
    }
    PagedOpenOptions open;
    open.pool_bytes = static_cast<size_t>(
        kPagedPoolShare *
        static_cast<double>(s->ram->graph().ComputeMemoryUsage().total_bytes()));
    std::optional<PagedData> pd = PagedStore::Open(store_path, open);
    ::unlink(store_path.c_str());  // the open descriptor keeps it readable
    if (!pd) {
      std::fprintf(stderr, "banks_bench: cannot open %s\n",
                   store_path.c_str());
      return nullptr;
    }
    s->store = pd->store;
    s->paged = std::make_unique<Engine>(std::move(pd->data));
  }
  if (wire) {
    s->server = std::make_unique<net::Server>(&s->engine());
    std::string error;
    if (!s->server->Start(&error)) {
      std::fprintf(stderr, "banks_bench: server start failed: %s\n",
                   error.c_str());
      return nullptr;
    }
  } else {
    s->scheduler = std::make_unique<Scheduler>();
  }
  return s;
}

/// One round of set-up timing: kSetupsPerRound wire set-ups, returning
/// their median in seconds, or a negative value on failure. With `keep`
/// the last set-up is kept (it serves); otherwise each is torn down.
double TimeSetupRound(const Database& db, const WorkloadSpec& spec,
                      const std::string& store_path,
                      std::unique_ptr<Served>* keep) {
  std::vector<double> seconds;
  std::unique_ptr<Served> served;
  for (size_t i = 0; i < kSetupsPerRound; ++i) {
    served.reset();
    Timer t;
    served = Setup(db, spec, store_path, /*wire=*/true);
    seconds.push_back(t.ElapsedSeconds());
    if (served == nullptr) return -1;
  }
  if (keep != nullptr) *keep = std::move(served);
  return Percentile(seconds, 0.5);
}

// ---- One load rung ----------------------------------------------------------

struct Rung {
  LoadResult load;
  int64_t t0 = 0;
  std::vector<Sampler::Sample> samples;
  double sampler_cpu_s = 0;
  std::vector<Writer::Applied> updates;
  uint64_t protocol_errors = 0;
  size_t num_workers = 0;
};

Rung RunRung(Served* served, const Schedule& schedule,
             const WorkloadSpec& spec, bool detailed, uint64_t seed,
             bool keep_all) {
  Rung rung;
  Scheduler* scheduler = served->server != nullptr
                             ? &served->server->scheduler()
                             : served->scheduler.get();
  auto make_transport = [&]() -> std::unique_ptr<Transport> {
    if (served->server != nullptr) {
      return std::make_unique<WireTransport>(served->server->port());
    }
    return std::make_unique<InProcessTransport>(&served->engine(), scheduler);
  };
  if (spec.traffic == Traffic::kOpen) {
    std::unique_ptr<Transport> prefill = make_transport();
    LoadOptions options;
    options.t0 = MonoNs();
    options.sample = 0;
    RunLoad(PrefillSchedule(schedule), Traffic::kOpen, prefill.get(), options);
  }
  std::unique_ptr<Transport> transport = make_transport();
  rung.num_workers = scheduler->num_workers();
  const BufferPool* pool =
      served->store != nullptr ? &served->store->pool() : nullptr;
  Sampler sampler(detailed, scheduler, served->server.get(), pool);
  rung.t0 = MonoNs() + 20'000'000;  // let connections and threads settle
  std::optional<Writer> writer;
  if (spec.update_rate > 0) {
    writer.emplace(&served->engine(), &schedule.updates, rung.t0);
  }
  LoadOptions options;
  options.t0 = rung.t0;
  options.sample = kCheckSample;
  options.keep_all = keep_all;
  options.seed = seed;
  options.engine = &served->engine();
  rung.load = RunLoad(schedule, spec.traffic, transport.get(), options);
  if (writer) rung.updates = writer->Join();
  sampler.Stop();
  rung.samples = sampler.samples();
  rung.sampler_cpu_s = sampler.cpu_seconds();
  if (auto* wire = dynamic_cast<WireTransport*>(transport.get())) {
    rung.protocol_errors = wire->protocol_errors();
  }
  return rung;
}

/// Requests whose due time falls in [start, end) (relative to the rung).
struct Slice {
  std::vector<const RequestRecord*> all;
  std::vector<double> query_ms;  // due -> terminal, completed requests
  std::vector<double> ttfa_ms;   // due -> first answer
  size_t failed = 0;
};

Slice SliceOf(const Rung& rung, int64_t start, int64_t end) {
  Slice s;
  for (const RequestRecord& r : rung.load.records) {
    const int64_t due = r.due_ns - rung.t0;
    if (due < start || due >= end) continue;
    s.all.push_back(&r);
    if (!r.ok()) {
      ++s.failed;
      continue;
    }
    s.query_ms.push_back(Ms(r.final_ns - r.due_ns));
    if (r.answers > 0) s.ttfa_ms.push_back(Ms(r.first_ns - r.due_ns));
  }
  return s;
}

/// Samples taken inside [start, end) relative to the rung start.
std::vector<const Sampler::Sample*> SamplesIn(const Rung& rung, int64_t start,
                                              int64_t end) {
  std::vector<const Sampler::Sample*> out;
  for (const Sampler::Sample& s : rung.samples) {
    const int64_t t = s.t_ns - rung.t0;
    if (t >= start && t < end) out.push_back(&s);
  }
  return out;
}

// ---- Answer checks ----------------------------------------------------------

using QueryKey = std::pair<uint32_t, Algorithm>;

/// Drained in-process answers for each key, one thread per core.
std::map<QueryKey, SearchResult> References(const Engine& engine,
                                            const Schedule& schedule,
                                            const std::vector<QueryKey>& keys) {
  std::vector<SearchResult> results(keys.size());
  std::atomic<size_t> next{0};
  const size_t threads =
      std::max<size_t>(1, std::min<size_t>(std::thread::hardware_concurrency(),
                                            keys.size()));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      SearchContext context;
      for (size_t i; (i = next.fetch_add(1)) < keys.size();) {
        results[i] = engine.Query(schedule.pool[keys[i].first], keys[i].second,
                                  schedule.options, &context);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  std::map<QueryKey, SearchResult> out;
  for (size_t i = 0; i < keys.size(); ++i) out[keys[i]] = std::move(results[i]);
  return out;
}

bool SameAnswers(const std::vector<AnswerTree>& got,
                 const std::vector<AnswerTree>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!SameAnswer(got[i], want[i])) return false;
  }
  return true;
}

struct CheckResult {
  bool ok = true;
  size_t compared = 0;
  std::vector<std::string> failures;

  void Fail(const std::string& why) {
    ok = false;
    if (failures.size() < 8) failures.push_back(why);
  }
};

/// Well-formedness of every request (terminal status, <= k answers,
/// score order under the tight bound) and answer identity of the kept
/// sample against the drained in-process query. `compare_answers` is off
/// under a concurrent writer, whose epochs the client cannot see.
void CheckRung(const Rung& rung, const Schedule& schedule,
               const Engine& reference, bool compare_answers,
               const char* rung_name, CheckResult* check) {
  std::vector<const RequestRecord*> kept;
  for (const RequestRecord& r : rung.load.records) {
    if (r.final_ns == 0 || (!r.error && r.status == SubscribeStatus::kPending)) {
      check->Fail(std::string(rung_name) + ": request without terminal state");
    }
    if (!r.well_formed) {
      check->Fail(std::string(rung_name) + ": malformed answers (op " +
                  std::to_string(r.op) + ")");
    }
    if (compare_answers && r.sampled) kept.push_back(&r);
  }
  if (!compare_answers) return;
  std::vector<QueryKey> keys;
  for (const RequestRecord* r : kept) {
    const Op& op = schedule.ops[r->op];
    keys.push_back({op.query, op.algorithm});
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::map<QueryKey, SearchResult> ref = References(reference, schedule, keys);
  for (const RequestRecord* r : kept) {
    const Op& op = schedule.ops[r->op];
    ++check->compared;
    if (!SameAnswers(r->trees, ref[{op.query, op.algorithm}].answers)) {
      check->Fail(std::string(rung_name) + ": answers differ from drained " +
                  "query (op " + std::to_string(r->op) + ")");
    }
  }
}

/// read-write after quiescing: the epoch count matches the batches
/// applied, and seeded requests sent through the benchmark's own wire
/// client equal the drained in-process query on the final epoch.
void CheckQuiesced(Served* served, const Schedule& schedule,
                   size_t batches_applied, uint64_t seed, CheckResult* check) {
  if (served->engine().epoch() != batches_applied) {
    check->Fail("epoch " + std::to_string(served->engine().epoch()) +
                " != batches applied " + std::to_string(batches_applied));
  }
  if (batches_applied != schedule.updates.size()) {
    check->Fail("writer applied " + std::to_string(batches_applied) + " of " +
                std::to_string(schedule.updates.size()) + " batches");
  }
  Rng rng(seed ^ 0xC0FFEEULL);
  std::vector<Op> ops;
  for (size_t i = 0; i < kQuiescedChecks; ++i) {
    ops.push_back(schedule.ops[rng.Below(schedule.ops.size())]);
  }
  const Schedule burst = Burst(schedule, std::move(ops));
  WireTransport transport(served->server->port());
  LoadOptions options;
  options.t0 = MonoNs();
  options.keep_all = true;
  Rung rung;
  rung.t0 = options.t0;
  rung.load = RunLoad(burst, Traffic::kOpen, &transport, options);
  for (const RequestRecord& r : rung.load.records) {
    if (!r.ok()) check->Fail("quiesced: request did not complete");
  }
  CheckRung(rung, burst, served->engine(), /*compare_answers=*/true,
            "quiesced", check);
}

// ---- Inline rung ------------------------------------------------------------

struct InlineSample {
  int64_t start_ns = 0, resolved_ns = 0, end_ns = 0;
  size_t origins = 0;
  SearchMetrics metrics;
};

struct InlineRung {
  std::vector<InlineSample> queries;
  std::vector<Writer::Applied> updates;  // due_ns unused
};

/// A seeded sample of the schedule's ops, single-threaded on a warm
/// context, then the update stream applied to a fresh engine.
InlineRung RunInline(Engine* engine, const Database& db,
                     const Schedule& schedule, const WorkloadSpec& spec,
                     uint64_t seed) {
  InlineRung out;
  std::vector<size_t> candidates;
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    const int64_t due = schedule.ops[i].due_ns;
    if (spec.traffic == Traffic::kClosed || due >= schedule.warmup_ns) {
      candidates.push_back(i);
    }
  }
  Rng rng(seed ^ 0x1A11EULL);
  rng.Shuffle(&candidates);
  candidates.resize(std::min(candidates.size(), spec.inline_sample));
  SearchContext context;
  for (size_t i = 0; i < std::min<size_t>(4, candidates.size()); ++i) {
    const Op& op = schedule.ops[candidates[i]];  // untimed warm-up
    engine->Query(schedule.pool[op.query], op.algorithm, schedule.options,
                  &context);
  }
  for (size_t i : candidates) {
    const Op& op = schedule.ops[i];
    InlineSample s;
    s.start_ns = MonoNs();
    std::vector<std::vector<NodeId>> origins =
        engine->Resolve(schedule.pool[op.query]);
    s.resolved_ns = MonoNs();
    SearchResult r = engine->QueryResolved(origins, op.algorithm,
                                           schedule.options, &context);
    s.end_ns = MonoNs();
    for (const auto& set : origins) s.origins += set.size();
    s.metrics = std::move(r.metrics);
    out.queries.push_back(std::move(s));
  }
  Engine writer_engine(BuildDataGraph(db));
  for (const UpdateOp& u : schedule.updates) {
    Writer::Applied a;
    a.structural = u.structural;
    a.start_ns = MonoNs();
    writer_engine.ApplyUpdate(u.batch);
    a.end_ns = MonoNs();
    out.updates.push_back(a);
  }
  return out;
}

// The sharding counters read as 0 once intra-query sharding and its
// SearchMetrics fields are removed, so the benchmark keeps building.
template <typename M>
uint64_t BspRounds(const M& m) {
  if constexpr (requires { m.bsp_rounds; }) {
    return m.bsp_rounds;
  } else {
    return 0;
  }
}
template <typename M>
uint64_t CrossShardMessages(const M& m) {
  if constexpr (requires { m.cross_shard_messages; }) {
    return m.cross_shard_messages;
  } else {
    return 0;
  }
}

// ---- Spans ------------------------------------------------------------------

/// Spans reconstructed from the in-memory records, written as JSON lines
/// after the run; times are ns since process start.
class SpanWriter {
 public:
  SpanWriter(const std::string& path, int64_t origin)
      : out_(path), origin_(origin) {}
  bool ok() const { return static_cast<bool>(out_); }
  uint64_t Add(uint64_t trace, uint64_t parent, const std::string& name,
               int64_t start, int64_t end) {
    const uint64_t id = next_++;
    out_ << "{\"trace_id\":" << trace << ",\"span_id\":" << id
         << ",\"parent\":" << parent << ",\"name\":\"" << name
         << "\",\"start_ns\":" << start - origin_
         << ",\"end_ns\":" << end - origin_ << "}\n";
    return id;
  }
  void Requests(const Rung& rung, uint64_t rung_id, const std::string& p) {
    uint64_t seq = 0;
    for (const RequestRecord& r : rung.load.records) {
      if (r.final_ns == 0) continue;
      const uint64_t trace = (rung_id << 40) | seq++;
      const uint64_t root =
          Add(trace, 0, p + ".request", r.due_ns, r.final_ns);
      Add(trace, root, p + ".send_lag", r.due_ns, r.sent_ns);
      if (r.first_ns != 0) {
        Add(trace, root, p + ".first_answer", r.sent_ns, r.first_ns);
      }
      Add(trace, root, "search.elapsed",
          r.final_ns - static_cast<int64_t>(r.server_seconds * 1e9),
          r.final_ns);
    }
    for (const Writer::Applied& a : rung.updates) {
      const uint64_t trace = (rung_id << 40) | seq++;
      const uint64_t root = Add(trace, 0, "banks.update", a.due_ns, a.end_ns);
      Add(trace, root,
          a.structural ? "banks.apply_structural" : "banks.apply_posting",
          a.start_ns, a.end_ns);
    }
  }
  void Inline(const InlineRung& rung, uint64_t rung_id) {
    uint64_t seq = 0;
    for (const InlineSample& s : rung.queries) {
      const uint64_t trace = (rung_id << 40) | seq++;
      const uint64_t root =
          Add(trace, 0, "inline.request", s.start_ns, s.end_ns);
      Add(trace, root, "text.resolve", s.start_ns, s.resolved_ns);
      Add(trace, root, "search.query", s.resolved_ns, s.end_ns);
    }
    for (const Writer::Applied& a : rung.updates) {
      Add((rung_id << 40) | seq++, 0,
          a.structural ? "banks.apply_structural" : "banks.apply_posting",
          a.start_ns, a.end_ns);
    }
  }

 private:
  std::ofstream out_;
  int64_t origin_;
  uint64_t next_ = 1;
};

// ---- Metrics ----------------------------------------------------------------

struct WindowBounds {
  int64_t window_start, window_end;        // whole window
  int64_t measured_start, measured_end;    // measured ladder step
};

WindowBounds Windows(const Schedule& s, const WorkloadSpec& spec) {
  return {s.warmup_ns, s.warmup_ns + s.window_ns,
          s.step_start_ns[spec.measured_step],
          s.step_start_ns[spec.measured_step + 1]};
}

/// Highest ladder step whose p95 (failures count as misses) meets the SLO
/// and whose completions keep up with arrivals over its second half.
double MaxRateAtSlo(const Rung& rung, const Schedule& s,
                    const WorkloadSpec& spec) {
  double best = 0;
  for (size_t i = 0; i + 1 < s.step_start_ns.size(); ++i) {
    const int64_t a = s.step_start_ns[i], b = s.step_start_ns[i + 1];
    const Slice slice = SliceOf(rung, a, b);
    std::vector<double> lat = slice.query_ms;
    lat.insert(lat.end(), slice.failed, 1e18);  // a failure misses any SLO
    const int64_t half = a + (b - a) / 2;
    size_t arrivals = 0, completions = 0;
    for (const RequestRecord& r : rung.load.records) {
      const int64_t due = r.due_ns - rung.t0, fin = r.final_ns - rung.t0;
      if (due >= half && due < b) ++arrivals;
      if (r.ok() && fin >= half && fin < b) ++completions;
    }
    const bool keeps_up =
        arrivals > 0 && static_cast<double>(completions) >=
                            0.95 * static_cast<double>(arrivals);
    if (!lat.empty() && Percentile(lat, 0.95) <= kSloP95Ms && keeps_up) {
      best = spec.rate_qps * spec.ladder[i].multiplier;
    }
  }
  return best;
}

void AddEndToEnd(const Rung& rung, const Schedule& s, const WorkloadSpec& spec,
                 double setup_s, MetricSet* m, size_t* attempted,
                 size_t* failed, double* sched_lag_p95) {
  const WindowBounds w = Windows(s, spec);
  const Slice measured = SliceOf(rung, w.measured_start, w.measured_end);
  const Slice window = SliceOf(rung, w.window_start, w.window_end);
  // Throughput: completions inside the window over the time from the
  // window start to the last of them.
  size_t completed_in_window = 0;
  int64_t last_completion = w.window_start;
  std::vector<double> lag_ms;
  for (const RequestRecord& r : rung.load.records) {
    const int64_t fin = r.final_ns - rung.t0;
    if (r.ok() && fin >= w.window_start && fin < w.window_end) {
      ++completed_in_window;
      last_completion = std::max(last_completion, fin);
    }
  }
  for (const RequestRecord* r : window.all) {
    lag_ms.push_back(Ms(r->sent_ns - r->due_ns));
  }
  size_t rss = 0;
  for (const Sampler::Sample* smp : SamplesIn(rung, w.window_start, w.window_end)) {
    rss = std::max(rss, smp->rss_bytes);
  }
  m->Add("setup_s", setup_s, "s");
  m->Add("query_p50_ms", Percentile(measured.query_ms, 0.50), "ms");
  m->Add("query_p95_ms", Percentile(measured.query_ms, 0.95), "ms");
  m->Add("ttfa_p50_ms", Percentile(measured.ttfa_ms, 0.50), "ms");
  m->Add("ttfa_p95_ms", Percentile(measured.ttfa_ms, 0.95), "ms");
  m->Add("throughput_qps",
         Ratio(static_cast<double>(completed_in_window),
               static_cast<double>(last_completion - w.window_start) * 1e-9),
         "1/s");
  m->Add("rss_peak_mb", static_cast<double>(rss) / (1 << 20), "MB");
  *attempted = window.all.size();
  *failed = window.failed;
  *sched_lag_p95 = Percentile(lag_ms, 0.95);
  m->Add("error_rate", Ratio(static_cast<double>(window.failed),
                             static_cast<double>(window.all.size())),
         "ratio");
  m->Add("query_samples", static_cast<double>(measured.query_ms.size()),
         "count");
  if (spec.ladder.size() > 1) {
    m->Add("max_rate_at_slo_qps", MaxRateAtSlo(rung, s, spec), "1/s");
  }
  if (!rung.updates.empty()) {
    std::vector<double> update_ms;
    for (const Writer::Applied& a : rung.updates) {
      const int64_t due = a.due_ns - rung.t0;
      if (due >= w.window_start && due < w.window_end) {
        update_ms.push_back(Ms(a.end_ns - a.due_ns));
      }
    }
    m->Add("update_p50_ms", Percentile(update_ms, 0.50), "ms");
    m->Add("update_p95_ms", Percentile(update_ms, 0.95), "ms");
  }
}

/// Per-layer metrics from the three rungs (README.md, "Per-layer").
void AddPerLayer(const Rung& wire, const Rung& inproc, const InlineRung& inl,
                 const Schedule& s, const WorkloadSpec& spec,
                 double prestige_ms, double memory_growth_mb, MetricSet* m) {
  const WindowBounds w = Windows(s, spec);
  const Slice wire_m = SliceOf(wire, w.measured_start, w.measured_end);
  const Slice inproc_m = SliceOf(inproc, w.measured_start, w.measured_end);
  const Slice wire_w = SliceOf(wire, w.window_start, w.window_end);

  std::vector<double> inline_ms, resolve_us, service_ms, ttfa_inline_ms;
  double origins = 0, explored = 0, touched = 0, relaxed = 0, steps = 0,
         generated = 0, output = 0, rounds = 0, messages = 0, exhausted = 0;
  for (const InlineSample& q : inl.queries) {
    inline_ms.push_back(Ms(q.end_ns - q.start_ns));
    resolve_us.push_back(static_cast<double>(q.resolved_ns - q.start_ns) * 1e-3);
    service_ms.push_back(Ms(q.end_ns - q.resolved_ns));
    if (!q.metrics.output_times.empty()) {
      ttfa_inline_ms.push_back(q.metrics.output_times[0] * 1e3);
    }
    origins += static_cast<double>(q.origins);
    explored += static_cast<double>(q.metrics.nodes_explored);
    touched += static_cast<double>(q.metrics.nodes_touched);
    relaxed += static_cast<double>(q.metrics.edges_relaxed);
    steps += static_cast<double>(q.metrics.propagation_steps);
    generated += static_cast<double>(q.metrics.answers_generated);
    output += static_cast<double>(q.metrics.answers_output);
    rounds += static_cast<double>(BspRounds(q.metrics));
    messages += static_cast<double>(CrossShardMessages(q.metrics));
    exhausted += q.metrics.budget_exhausted ? 1 : 0;
  }
  const auto nq = static_cast<double>(inl.queries.size());

  double bytes = 0, frames = 0, lag_epochs = 0;
  std::vector<double> wait_ms, server_ms;
  size_t ok = 0;
  for (const RequestRecord* r : wire_w.all) {
    if (!r->ok()) continue;
    ++ok;
    bytes += static_cast<double>(r->bytes);
    frames += static_cast<double>(r->frames);
    lag_epochs += static_cast<double>(r->epoch_final - r->epoch_sent);
    wait_ms.push_back(Ms(r->final_ns - r->sent_ns) - r->server_seconds * 1e3);
    server_ms.push_back(r->server_seconds * 1e3);
  }
  const auto nok = static_cast<double>(ok);

  const auto smp = SamplesIn(wire, w.window_start, w.window_end);
  double runnable = 0, queued = 0, busy = 0, page_waiting = 0;
  double credit_max = 0, backlog_max = 0, pinned_max = 0;
  for (const Sampler::Sample* x : smp) {
    runnable += static_cast<double>(x->sched.runnable);
    queued += static_cast<double>(x->sched.admission_queued);
    busy += static_cast<double>(x->sched.executing);
    page_waiting += static_cast<double>(x->sched.page_waiting);
    credit_max = std::max(credit_max, static_cast<double>(x->sched.credit_waiting));
    backlog_max = std::max(
        backlog_max, static_cast<double>(x->server.output_backlog_frames));
    pinned_max = std::max(pinned_max, static_cast<double>(x->sched.pinned_epochs));
  }
  const auto ns = static_cast<double>(std::max<size_t>(1, smp.size()));
  Scheduler::Stats d0, d1;
  BufferPoolStats p0, p1;
  net::Server::Stats v0, v1;
  if (!smp.empty()) {
    d0 = smp.front()->sched, d1 = smp.back()->sched;
    p0 = smp.front()->pool, p1 = smp.back()->pool;
    v0 = smp.front()->server, v1 = smp.back()->server;
  }
  const auto completed = static_cast<double>(d1.completed - d0.completed);
  const auto hits = static_cast<double>(p1.hits - p0.hits);
  const auto misses = static_cast<double>(p1.misses - p0.misses);

  std::vector<double> structural_ms, posting_ms;
  for (const Writer::Applied& a : inl.updates) {
    (a.structural ? structural_ms : posting_ms).push_back(Ms(a.end_ns - a.start_ns));
  }
  const double load_s = static_cast<double>(wire.load.end_ns - wire.t0) * 1e-9;

  m->Add("net.self_p50_ms",
         Percentile(wire_m.query_ms, 0.5) - Percentile(inproc_m.query_ms, 0.5),
         "ms");
  m->Add("net.bytes_per_query", Ratio(bytes, nok), "bytes");
  m->Add("net.frames_per_query", Ratio(frames, nok), "count");
  m->Add("net.backlog_frames_max", backlog_max, "count");
  m->Add("net.protocol_errors",
         static_cast<double>(wire.protocol_errors +
                             (v1.protocol_errors - v0.protocol_errors)),
         "count");
  m->Add("serve.wait_p50_ms", Percentile(wait_ms, 0.5), "ms");
  m->Add("serve.wait_p95_ms", Percentile(wait_ms, 0.95), "ms");
  m->Add("serve.self_p50_ms",
         Percentile(inproc_m.query_ms, 0.5) - Percentile(inline_ms, 0.5), "ms");
  m->Add("serve.runnable_mean", runnable / ns, "count");
  m->Add("serve.admission_queued_mean", queued / ns, "count");
  m->Add("serve.worker_busy_frac",
         Ratio(busy / ns, static_cast<double>(wire.num_workers)), "ratio");
  m->Add("serve.quanta_per_query",
         Ratio(static_cast<double>(d1.quanta - d0.quanta), completed), "count");
  m->Add("serve.rejected", static_cast<double>(d1.rejected - d0.rejected),
         "count");
  m->Add("serve.deadline_expired",
         static_cast<double>(d1.deadline_expired - d0.deadline_expired), "count");
  m->Add("serve.credit_waiting_max", credit_max, "count");
  m->Add("serve.page_waits_per_query",
         Ratio(static_cast<double>(d1.page_waits - d0.page_waits), completed),
         "count");
  m->Add("serve.page_waiting_mean", page_waiting / ns, "count");
  m->Add("serve.pinned_epochs_max", pinned_max, "count");
  m->Add("text.resolve_p50_us", Percentile(resolve_us, 0.5), "us");
  m->Add("text.origins_per_query", Ratio(origins, nq), "count");
  m->Add("search.service_p50_ms", Percentile(service_ms, 0.5), "ms");
  m->Add("search.service_p95_ms", Percentile(service_ms, 0.95), "ms");
  m->Add("search.ttfa_inline_p50_ms", Percentile(ttfa_inline_ms, 0.5), "ms");
  m->Add("search.server_p50_ms", Percentile(server_ms, 0.5), "ms");
  m->Add("search.nodes_explored_per_query", Ratio(explored, nq), "count");
  m->Add("search.nodes_touched_per_query", Ratio(touched, nq), "count");
  m->Add("search.edges_relaxed_per_query", Ratio(relaxed, nq), "count");
  m->Add("search.propagation_steps_per_query", Ratio(steps, nq), "count");
  m->Add("search.answers_generated_per_query", Ratio(generated, nq), "count");
  m->Add("search.release_ratio", Ratio(output, generated), "ratio");
  m->Add("search.bsp_rounds_per_query", Ratio(rounds, nq), "count");
  m->Add("search.cross_shard_messages_per_query", Ratio(messages, nq), "count");
  m->Add("search.budget_exhausted_frac", Ratio(exhausted, nq), "ratio");
  m->Add("storage.hit_rate", hits + misses > 0 ? hits / (hits + misses) : 1,
         "ratio");
  m->Add("storage.misses_per_query", Ratio(misses, completed), "count");
  m->Add("storage.evictions_per_query",
         Ratio(static_cast<double>(p1.evictions - p0.evictions), completed),
         "count");
  m->Add("storage.fetches_per_query",
         Ratio(static_cast<double>(p1.fetch_requests - p0.fetch_requests),
               completed),
         "count");
  m->Add("storage.capacity_overshoots",
         static_cast<double>(p1.capacity_overshoots - p0.capacity_overshoots),
         "count");
  m->Add("storage.io_errors", static_cast<double>(p1.io_errors - p0.io_errors),
         "count");
  m->Add("storage.resident_mb", static_cast<double>(p1.resident_bytes) / (1 << 20),
         "MB");
  m->Add("banks.update_structural_p50_ms", Percentile(structural_ms, 0.5), "ms");
  m->Add("banks.update_posting_p50_ms", Percentile(posting_ms, 0.5), "ms");
  m->Add("banks.epoch_lag_mean", Ratio(lag_epochs, nok), "count");
  m->Add("prestige.rerun_ms", prestige_ms, "ms");
  m->Add("graph.memory_growth_mb", memory_growth_mb, "MB");
  m->Add("bench.trace_overhead_pct", 100 * Ratio(wire.sampler_cpu_s, load_s),
         "%");
}

int Main(const Args& args) {
  const int64_t origin = MonoNs();
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  RunShape shape;
  shape.window_s = args.seconds;
  if (args.smoke) {
    shape.scale = 0.05;
    shape.warmup_s = 1;
    shape.window_s = 2;
  }
  const bool traced = !args.trace_path.empty();
  const std::string loadavg = LoadAvg();
  const double calib_ms = CpuCalibrationMs();

  bench::BenchEnv env = bench::MakeDblpEnv(shape.scale);
  const Database& db = env.db;
  const std::string store_path = args.work_dir + "/banks_bench_" +
                                 std::to_string(::getpid()) + ".store";
  std::vector<double> setup_rounds;
  std::unique_ptr<Served> served;
  auto setup_round = [&](std::unique_ptr<Served>* keep) {
    setup_rounds.push_back(TimeSetupRound(db, spec, store_path, keep));
    return setup_rounds.back() >= 0;
  };
  if (!setup_round(&served)) return 2;
  const Schedule schedule =
      MakeSchedule(spec, shape, args.seed, &env.db, env.dg, env.thresholds);
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(schedule.Hash()));
  if (args.schedule_hash) {
    std::printf("schedule_hash %s\n", hash);
    return 0;
  }
  if (schedule.pool.empty() || schedule.ops.empty()) {
    std::fprintf(stderr, "banks_bench: empty schedule\n");
    return 2;
  }

  const size_t memory_before =
      served->engine().graph().ComputeMemoryUsage().total_bytes();
  Rung wire = RunRung(served.get(), schedule, spec, traced, args.seed,
                      args.smoke);
  if (!setup_round(nullptr)) return 2;
  CheckResult check;
  const bool live = spec.update_rate > 0;
  CheckRung(wire, schedule, *served->ram, !live, "wire", &check);
  if (live) {
    CheckQuiesced(served.get(), schedule, wire.updates.size(), args.seed,
                  &check);
  }
  if (!setup_round(nullptr)) return 2;
  double setup_s = 0;
  for (double s : setup_rounds) setup_s += s / setup_rounds.size();

  MetricSet metrics;
  size_t attempted = 0, failed = 0;
  double sched_lag_p95 = 0;
  AddEndToEnd(wire, schedule, spec, setup_s, &metrics, &attempted, &failed,
              &sched_lag_p95);
  metrics.Add("bench.sched_lag_p95_ms", sched_lag_p95, "ms");
  metrics.Add("bench.cpu_calib_ms", calib_ms, "ms");
  metrics.Add("bench.repeat_share", schedule.RepeatShare(wire.load.issued),
              "ratio");

  if (traced) {
    std::vector<double> prestige_ms;
    for (int i = 0; i < 3; ++i) {
      Timer t;
      ComputePrestige(served->engine().graph());
      prestige_ms.push_back(t.ElapsedMillis());
    }
    const double growth_mb =
        static_cast<double>(
            served->engine().graph().ComputeMemoryUsage().total_bytes() -
            memory_before) /
        (1 << 20);
    std::unique_ptr<Served> local = Setup(db, spec, store_path, /*wire=*/false);
    if (local == nullptr) return 2;
    Rung inproc = RunRung(local.get(), schedule, spec, /*detailed=*/false,
                          args.seed, args.smoke);
    CheckRung(inproc, schedule, *local->ram, !live, "in-process", &check);
    InlineRung inl = RunInline(&local->engine(), db, schedule, spec, args.seed);
    AddPerLayer(wire, inproc, inl, schedule, spec,
                Percentile(prestige_ms, 0.5), growth_mb, &metrics);
    SpanWriter spans(args.trace_path, origin);
    spans.Requests(wire, 1, "wire");
    spans.Requests(inproc, 2, "inproc");
    spans.Inline(inl, 3);
    if (!spans.ok()) check.Fail("cannot write trace " + args.trace_path);
  }

  const bool valid = sched_lag_p95 <= kMaxSchedLagMs;
  std::printf("workload %s seed %llu window %.0f s%s schedule %s\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              shape.window_s, traced ? " traced" : "", hash);
  metrics.Print();
  std::printf("attempted %zu failed %zu answers_checked %zu checks %s%s\n",
              attempted, failed, check.compared, check.ok ? "ok" : "FAILED",
              valid ? "" : " (invalid: generator ran late)");
  for (const std::string& f : check.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  if (args.json) {
    const unsigned nproc = std::thread::hardware_concurrency();
    std::string ladder;
    for (const Step& step : spec.ladder) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s{\"multiplier\":%g,\"share\":%g}",
                    ladder.empty() ? "" : ",", step.multiplier, step.share);
      ladder += buf;
    }
    std::printf(
        "{\"bench\":\"banks_bench\",\"schema\":1,\"workload\":%s,"
        "\"seed\":%llu,\"window_s\":%.17g,\"warmup_s\":%.17g,\"scale\":%.17g,"
        "\"smoke\":%s,\"traced\":%s,\"rate_qps\":%.17g,\"ladder\":[%s],"
        "\"connections\":%zu,\"k\":%zu,"
        "\"schedule_hash\":\"%s\",\"fingerprint\":{\"nproc\":%u,"
        "\"cpu_model\":%s,\"build_type\":%s},\"loadavg_start\":%s,"
        "\"checks_ok\":%s,\"valid\":%s,\"attempted\":%zu,\"failed\":%zu,"
        "\"answers_checked\":%zu,\"metrics\":%s}\n",
        JsonString(spec.name).c_str(),
        static_cast<unsigned long long>(args.seed), shape.window_s,
        shape.warmup_s, shape.scale, args.smoke ? "true" : "false",
        traced ? "true" : "false", spec.rate_qps, ladder.c_str(),
        kConnections, kTopK, hash, nproc, JsonString(CpuModel()).c_str(),
        JsonString(BANKS_BENCH_BUILD_TYPE).c_str(), loadavg.c_str(),
        check.ok ? "true" : "false", valid ? "true" : "false", attempted,
        failed, check.compared, metrics.Json().c_str());
  }
  std::fflush(stdout);
  return check.ok ? 0 : 1;
}

}  // namespace
}  // namespace banks::e2e

int main(int argc, char** argv) {
  banks::e2e::Args args;
  if (!banks::e2e::ParseArgs(argc, argv, &args)) {
    std::string names;
    for (const std::string& n : banks::e2e::WorkloadNames()) {
      names += (names.empty() ? "" : "|") + n;
    }
    std::fprintf(stderr,
                 "usage: %s --workload=%s --seed=N [--seconds=S] "
                 "[--trace=PATH] [--json] [--smoke] [--work-dir=DIR] "
                 "[--schedule-hash]\n",
                 argv[0], names.c_str());
    return 2;
  }
  return banks::e2e::Main(args);
}
