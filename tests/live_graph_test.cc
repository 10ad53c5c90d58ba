// Live-graph v1 differential harness (docs/UPDATES.md): a randomized
// sequence of append-only UpdateBatches applied through
// Engine::ApplyUpdate must leave every epoch snapshot *byte-identical*
// under search to a fresh-built engine of the same logical state —
// ARCHITECTURE.md contract 4 — at every algorithm × bound mode, over a
// resident base and over a paged one. Plus: snapshot isolation for
// streams and subscriptions racing with updates, answer rendering
// racing with updates, the paged-file fault-injection path
// (truncated file → kIoError, not silence), and malformed batches
// rejected before anything publishes.
//
// This whole file runs under TSan in CI (the *LiveGraph* filter): the
// concurrent tests are the data-race proof for the publish/pin
// protocol.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "banks/engine.h"
#include "search/answer.h"
#include "serve/queue_sink.h"
#include "serve/scheduler.h"
#include "storage/paged_store.h"
#include "test_util.h"
#include "text/inverted_index.h"

namespace banks {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

/// Execution-independent metric comparison: page_*/io_errors and timing
/// fields are deliberately excluded (metrics.h).
void ExpectSameDeterministicMetrics(const SearchMetrics& a,
                                    const SearchMetrics& b) {
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.nodes_touched, b.nodes_touched);
  EXPECT_EQ(a.edges_relaxed, b.edges_relaxed);
  EXPECT_EQ(a.propagation_steps, b.propagation_steps);
  EXPECT_EQ(a.answers_generated, b.answers_generated);
  EXPECT_EQ(a.answers_output, b.answers_output);
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted);
}

void ExpectSameResult(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.answers.size(), b.answers.size());
  for (size_t i = 0; i < a.answers.size(); ++i) {
    EXPECT_TRUE(SameAnswer(a.answers[i], b.answers[i])) << "answer " << i;
    EXPECT_DOUBLE_EQ(a.answers[i].score, b.answers[i].score) << "answer " << i;
  }
  ExpectSameDeterministicMetrics(a.metrics, b.metrics);
}

// ---------------------------------------------------------------------
// Logical-state mirror
// ---------------------------------------------------------------------

/// The harness's source of truth: the full logical state an engine is
/// supposed to hold after a batch sequence. Every batch is applied BOTH
/// to the live engine (ApplyUpdate → overlays) and to this mirror; a
/// reference engine fresh-built from the mirror is the oracle.
struct Mirror {
  struct Node {
    NodeType type = kUntypedNode;
    std::string label;
    std::vector<std::string> texts;
  };
  std::vector<Node> nodes;
  std::vector<std::string> type_names;  // intern order == engine order
  std::vector<UpdateBatch::NewEdge> edges;

  NodeType Intern(const std::string& name) {
    if (name.empty()) return kUntypedNode;
    for (size_t i = 0; i < type_names.size(); ++i) {
      if (type_names[i] == name) return static_cast<NodeType>(i);
    }
    type_names.push_back(name);
    return static_cast<NodeType>(type_names.size() - 1);
  }

  /// Mirrors Engine::ApplyUpdate's logical effect.
  void Apply(const UpdateBatch& batch) {
    for (const UpdateBatch::NewNode& n : batch.nodes) {
      Node node;
      node.type = Intern(n.type);
      node.label = n.label;
      if (!n.text.empty()) node.texts.push_back(n.text);
      nodes.push_back(std::move(node));
    }
    for (const UpdateBatch::NewEdge& e : batch.edges) edges.push_back(e);
    for (const UpdateBatch::NewText& t : batch.texts) {
      if (!t.text.empty()) nodes[t.node].texts.push_back(t.text);
    }
  }

  /// Fresh build of the mirror's whole state: the contract-4 oracle.
  DataGraph BuildData() const {
    GraphBuilder b;
    for (const std::string& name : type_names) b.InternType(name);
    for (const Node& n : nodes) b.AddNode(n.type);
    for (const UpdateBatch::NewEdge& e : edges) b.AddEdge(e.u, e.v, e.weight);
    DataGraph dg;
    dg.graph = b.Build();
    for (NodeId v = 0; v < nodes.size(); ++v) {
      for (const std::string& text : nodes[v].texts) {
        dg.index.AddDocument(v, text);
      }
    }
    dg.index.Freeze();
    dg.table_first_node = {0, static_cast<NodeId>(nodes.size())};
    dg.node_labels.reserve(nodes.size());
    for (const Node& n : nodes) dg.node_labels.push_back(n.label);
    return dg;
  }

  Engine BuildEngine(const EngineOptions& options = {}) const {
    return Engine(BuildData(), options);
  }
};

const char* const kVocab[] = {"alpha", "beta",  "gamma", "delta",
                              "epsilon", "zeta", "eta",   "theta"};
constexpr size_t kVocabSize = sizeof(kVocab) / sizeof(kVocab[0]);
const char* const kTypes[] = {"", "paper", "author", "cites"};

std::string RandText(std::mt19937_64& rng) {
  std::string text;
  const size_t words = 1 + rng() % 3;
  for (size_t i = 0; i < words; ++i) {
    if (!text.empty()) text += ' ';
    text += kVocab[rng() % kVocabSize];
  }
  return text;
}

/// Exact-in-float weights, so double→float conversion points in the
/// build and delta paths cannot diverge by construction of the inputs
/// (the paths must still agree on *when* they narrow — that part is
/// exercised by the shared log2-derived backward weights).
double RandWeight(std::mt19937_64& rng) {
  return 0.5 + 0.5 * static_cast<double>(rng() % 6);
}

UpdateBatch::NewEdge RandEdge(std::mt19937_64& rng, size_t num_nodes) {
  UpdateBatch::NewEdge e;
  e.u = static_cast<NodeId>(rng() % num_nodes);
  e.v = static_cast<NodeId>(rng() % num_nodes);
  if (e.v == e.u) e.v = (e.v + 1) % num_nodes;  // no self-loops in v1
  e.weight = RandWeight(rng);
  return e;
}

/// Seed state: a few dozen typed nodes with vocab texts and random edges.
Mirror SeedMirror(std::mt19937_64& rng, size_t num_nodes, size_t num_edges) {
  Mirror m;
  UpdateBatch seed;
  for (size_t i = 0; i < num_nodes; ++i) {
    UpdateBatch::NewNode n;
    n.type = kTypes[rng() % 4];
    n.label = "n" + std::to_string(i);
    n.text = RandText(rng);
    seed.nodes.push_back(std::move(n));
  }
  for (size_t i = 0; i < num_edges; ++i) {
    seed.edges.push_back(RandEdge(rng, num_nodes));
  }
  m.Apply(seed);
  return m;
}

/// One randomized append-only batch against the current mirror size:
/// new typed nodes with text, new edges (old↔new endpoints mixed), and
/// appended postings on existing nodes.
UpdateBatch RandBatch(std::mt19937_64& rng, size_t num_nodes) {
  UpdateBatch batch;
  const size_t new_nodes = rng() % 4;  // 0..3 (0 = edge/text-only batch)
  for (size_t i = 0; i < new_nodes; ++i) {
    UpdateBatch::NewNode n;
    n.type = kTypes[rng() % 4];
    n.label = "u" + std::to_string(num_nodes + i);
    n.text = RandText(rng);
    batch.nodes.push_back(std::move(n));
  }
  const size_t total = num_nodes + new_nodes;
  const size_t new_edges = 1 + rng() % 4;
  for (size_t i = 0; i < new_edges; ++i) {
    batch.edges.push_back(RandEdge(rng, total));
  }
  const size_t new_texts = rng() % 3;
  for (size_t i = 0; i < new_texts; ++i) {
    UpdateBatch::NewText t;
    t.node = static_cast<NodeId>(rng() % num_nodes);
    t.text = RandText(rng);
    batch.texts.push_back(std::move(t));
  }
  return batch;
}

const std::vector<std::vector<std::string>>& Queries() {
  static const auto* queries = new std::vector<std::vector<std::string>>{
      {"alpha", "delta"}, {"beta", "gamma"}, {"epsilon", "zeta"}};
  return *queries;
}

/// Full contract-4 grid of one live engine against its mirror's fresh
/// build: 3 algorithms × 3 bound modes.
void ExpectMatchesFreshBuild(const Engine& live, const Mirror& mirror,
                             const EngineOptions& engine_options) {
  Engine reference = mirror.BuildEngine(engine_options);
  for (Algorithm algorithm : {Algorithm::kBackwardMI, Algorithm::kBackwardSI,
                              Algorithm::kBidirectional}) {
    for (BoundMode bound :
         {BoundMode::kTight, BoundMode::kLoose, BoundMode::kImmediate}) {
      SearchOptions options;
      options.k = 6;
      options.bound = bound;
      for (const auto& keywords : Queries()) {
        SearchResult expect = reference.Query(keywords, algorithm, options);
        SearchResult got = live.Query(keywords, algorithm, options);
        ExpectSameResult(expect, got);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Differential harness: resident base
// ---------------------------------------------------------------------

TEST(LiveGraph, InterleavedUpdatesMatchFreshBuildAcrossGrid) {
  std::mt19937_64 rng(7);
  Mirror mirror = SeedMirror(rng, 40, 80);
  EngineOptions engine_options;  // compute_prestige on: scores must also
  Engine live = mirror.BuildEngine(engine_options);  // track re-weighting

  for (int epoch = 1; epoch <= 6; ++epoch) {
    UpdateBatch batch = RandBatch(rng, mirror.nodes.size());
    const uint64_t published = live.ApplyUpdate(batch);
    EXPECT_EQ(published, static_cast<uint64_t>(epoch));
    mirror.Apply(batch);
    ASSERT_NO_FATAL_FAILURE(
        ExpectMatchesFreshBuild(live, mirror, engine_options))
        << "epoch " << epoch;
  }
}

TEST(LiveGraph, UniformPrestigeVariantAlsoMatches) {
  // The compute_prestige=false path carries uniform prestige across
  // growing node counts — the vector must be resized, not carried.
  std::mt19937_64 rng(13);
  Mirror mirror = SeedMirror(rng, 30, 60);
  EngineOptions engine_options;
  engine_options.compute_prestige = false;
  Engine live = mirror.BuildEngine(engine_options);
  for (int epoch = 1; epoch <= 4; ++epoch) {
    UpdateBatch batch = RandBatch(rng, mirror.nodes.size());
    live.ApplyUpdate(batch);
    mirror.Apply(batch);
    ASSERT_NO_FATAL_FAILURE(
        ExpectMatchesFreshBuild(live, mirror, engine_options))
        << "epoch " << epoch;
  }
}

TEST(LiveGraph, EmptyAndPostingOnlyBatchesKeepStructureEpoch) {
  std::mt19937_64 rng(3);
  Mirror mirror = SeedMirror(rng, 20, 40);
  Engine live = mirror.BuildEngine();
  EXPECT_EQ(live.epoch(), 0u);
  EXPECT_EQ(live.structure_epoch(), 0u);

  EXPECT_EQ(live.ApplyUpdate(UpdateBatch{}), 1u);
  EXPECT_EQ(live.structure_epoch(), 0u);  // nothing structural happened

  UpdateBatch texts_only;
  texts_only.texts.push_back({3, "omicron"});
  EXPECT_EQ(live.ApplyUpdate(texts_only), 2u);
  EXPECT_EQ(live.structure_epoch(), 0u);
  mirror.Apply(texts_only);
  // The new posting resolves; the graph itself is untouched.
  EXPECT_EQ(live.Resolve({"omicron"}), (std::vector<std::vector<NodeId>>{{3}}));
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesFreshBuild(live, mirror, {}));

  UpdateBatch structural;
  structural.edges.push_back(RandEdge(rng, mirror.nodes.size()));
  EXPECT_EQ(live.ApplyUpdate(structural), 3u);
  EXPECT_EQ(live.structure_epoch(), 1u);
  mirror.Apply(structural);
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesFreshBuild(live, mirror, {}));
}

// ---------------------------------------------------------------------
// Malformed batches: rejected whole, nothing published
// ---------------------------------------------------------------------

/// Applies `bad` to a live engine that already holds one good epoch and
/// expects std::invalid_argument with the engine untouched: same epoch,
/// same structure epoch, and still answering exactly like a fresh build
/// of the good state.
void ExpectRejected(const UpdateBatch& bad) {
  std::mt19937_64 rng(5);
  Mirror mirror = SeedMirror(rng, 20, 40);
  Engine live = mirror.BuildEngine();
  UpdateBatch good = RandBatch(rng, mirror.nodes.size());
  ASSERT_EQ(live.ApplyUpdate(good), 1u);
  mirror.Apply(good);
  const uint64_t structure_epoch = live.structure_epoch();

  EXPECT_THROW(live.ApplyUpdate(bad), std::invalid_argument);
  EXPECT_EQ(live.epoch(), 1u);
  EXPECT_EQ(live.structure_epoch(), structure_epoch);
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesFreshBuild(live, mirror, {}));
}

/// A batch with one new node (id = the seed's node count) and one edge
/// from node 0 to it — valid until a test breaks one field.
UpdateBatch OneNodeOneEdge(NodeId num_nodes_after_seed_batch) {
  UpdateBatch batch;
  batch.nodes.push_back({"paper", "p-new", "omicron"});
  batch.edges.push_back({0, num_nodes_after_seed_batch, 1.0});
  return batch;
}

NodeId NodesAfterGoodBatch() {
  std::mt19937_64 rng(5);
  Mirror mirror = SeedMirror(rng, 20, 40);
  mirror.Apply(RandBatch(rng, mirror.nodes.size()));
  return static_cast<NodeId>(mirror.nodes.size());
}

TEST(LiveGraph, RejectsEdgeEndpointBeyondNodeCount) {
  const NodeId n = NodesAfterGoodBatch();
  UpdateBatch bad = OneNodeOneEdge(n);
  bad.edges.push_back({n + 1, 0, 1.0});  // only n is new in this batch
  ExpectRejected(bad);
  UpdateBatch bad_target = OneNodeOneEdge(n);
  bad_target.edges.push_back({0, 4'000'000'000u, 1.0});
  ExpectRejected(bad_target);
}

TEST(LiveGraph, RejectsNonPositiveEdgeWeight) {
  const NodeId n = NodesAfterGoodBatch();
  UpdateBatch zero = OneNodeOneEdge(n);
  zero.edges.back().weight = 0.0;
  ExpectRejected(zero);
  UpdateBatch negative = OneNodeOneEdge(n);
  negative.edges.back().weight = -2.0;
  ExpectRejected(negative);
  UpdateBatch underflow = OneNodeOneEdge(n);
  underflow.edges.back().weight = 1e-60;  // rounds to 0 as a float
  ExpectRejected(underflow);
}

TEST(LiveGraph, RejectsNonFiniteEdgeWeight) {
  const NodeId n = NodesAfterGoodBatch();
  for (double w : {std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN(),
                   1e300 /* overflows to inf as a float */}) {
    UpdateBatch bad = OneNodeOneEdge(n);
    bad.edges.back().weight = w;
    ExpectRejected(bad);
  }
}

TEST(LiveGraph, RejectsTextNodeBeyondNodeCount) {
  const NodeId n = NodesAfterGoodBatch();
  UpdateBatch bad = OneNodeOneEdge(n);
  bad.texts.push_back({n, "sigma"});      // the batch's own new node: ok
  bad.texts.push_back({n + 1, "sigma"});  // beyond the new node count
  ExpectRejected(bad);
}

TEST(LiveGraph, RelationMatchesSurviveUpdates) {
  // Relation ranges are immutable in v1 and must carry through index
  // overlays: a relation-name keyword matches the same range at every
  // epoch, merged with any postings the term also has.
  Mirror mirror;
  UpdateBatch seed;
  for (int i = 0; i < 8; ++i) {
    seed.nodes.push_back({"paper", "p" + std::to_string(i), "alpha"});
  }
  seed.edges.push_back({0, 1, 1.0});
  mirror.Apply(seed);
  // Built inline rather than via BuildData: the relation must be
  // registered before Freeze (InvertedIndex asserts on late writes).
  DataGraph dg;
  {
    GraphBuilder b;
    for (const std::string& name : mirror.type_names) b.InternType(name);
    for (const Mirror::Node& n : mirror.nodes) b.AddNode(n.type);
    for (const UpdateBatch::NewEdge& e : mirror.edges) {
      b.AddEdge(e.u, e.v, e.weight);
    }
    dg.graph = b.Build();
    for (NodeId v = 0; v < mirror.nodes.size(); ++v) {
      for (const std::string& text : mirror.nodes[v].texts) {
        dg.index.AddDocument(v, text);
      }
    }
    dg.index.RegisterRelation("paper", 0, 8);
    dg.index.Freeze();
    dg.table_first_node = {0, static_cast<NodeId>(mirror.nodes.size())};
    for (const Mirror::Node& n : mirror.nodes) {
      dg.node_labels.push_back(n.label);
    }
  }
  Engine live(std::move(dg));

  std::vector<NodeId> all = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(live.index().Match("paper"), all);

  UpdateBatch update;
  update.nodes.push_back({"paper", "p8", "paper beta"});
  update.edges.push_back({8, 0, 1.0});
  live.ApplyUpdate(update);
  // The relation range still matches 0..7; node 8's text also contains
  // the literal token "paper", and the union must include both.
  all.push_back(8);
  EXPECT_EQ(live.index().Match("paper"), all);
  EXPECT_EQ(live.index().Match("beta"), std::vector<NodeId>{8});
  EXPECT_EQ(live.index().Match("alpha"),
            (std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// ---------------------------------------------------------------------
// Differential harness: paged base
// ---------------------------------------------------------------------

TEST(LiveGraph, PagedBaseWithOverlaysMatchesFreshBuild) {
  std::mt19937_64 rng(21);
  Mirror mirror = SeedMirror(rng, 48, 100);
  const std::string path = TempPath("live_paged.banks");
  {
    Engine seed = mirror.BuildEngine();
    PagedStoreOptions save;
    save.page_size = 1u << 10;
    save.inline_run_bytes = 0;  // all adjacency must fault
    ASSERT_TRUE(PagedStore::Save(seed.data(), seed.prestige(), path, save));
  }
  PagedOpenOptions open;
  open.pool_bytes = 8u << 10;  // far below the working set
  std::optional<PagedData> pd = PagedStore::Open(path, open);
  ASSERT_TRUE(pd.has_value());
  std::shared_ptr<PagedStore> store = pd->store;
  Engine live(std::move(pd->data));

  EngineOptions engine_options;  // stored prestige ≡ recomputed (same data)
  for (int epoch = 1; epoch <= 4; ++epoch) {
    UpdateBatch batch = RandBatch(rng, mirror.nodes.size());
    live.ApplyUpdate(batch);
    mirror.Apply(batch);
    ASSERT_NO_FATAL_FAILURE(
        ExpectMatchesFreshBuild(live, mirror, engine_options))
        << "epoch " << epoch;
  }
  // The tiny pool must actually have paged while overlay queries ran.
  EXPECT_GT(store->pool().stats().misses, 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Snapshot isolation
// ---------------------------------------------------------------------

TEST(LiveGraph, OpenStreamsKeepTheirEpochAcrossUpdates) {
  std::mt19937_64 rng(31);
  Mirror mirror = SeedMirror(rng, 30, 60);
  Engine live = mirror.BuildEngine();
  SearchOptions options;
  options.k = 6;

  SearchResult expect_old =
      live.Query(Queries()[0], Algorithm::kBidirectional, options);
  AnswerStream stream =
      live.OpenQuery(Queries()[0], Algorithm::kBidirectional, options);
  std::optional<AnswerTree> first = stream.Next();  // search has begun

  // Update lands mid-stream; the stream must keep reading its epoch.
  UpdateBatch batch = RandBatch(rng, mirror.nodes.size());
  batch.texts.push_back({1, "alpha delta"});  // touches the query's terms
  live.ApplyUpdate(batch);
  mirror.Apply(batch);

  SearchResult rest = stream.Drain();
  std::vector<AnswerTree> streamed;
  if (first) streamed.push_back(std::move(*first));
  for (AnswerTree& t : rest.answers) streamed.push_back(std::move(t));
  ASSERT_EQ(streamed.size(), expect_old.answers.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_TRUE(SameAnswer(expect_old.answers[i], streamed[i]))
        << "answer " << i;
  }

  // A query opened after the publish sees the new state.
  Engine reference = mirror.BuildEngine();
  ExpectSameResult(
      reference.Query(Queries()[0], Algorithm::kBidirectional, options),
      live.Query(Queries()[0], Algorithm::kBidirectional, options));
}

TEST(LiveGraph, ParkedSubscriptionPinsItsEpoch) {
  std::mt19937_64 rng(41);
  Mirror mirror = SeedMirror(rng, 30, 60);
  Engine live = mirror.BuildEngine();
  SearchOptions options;
  options.k = 6;
  SearchResult expect_old =
      live.Query(Queries()[1], Algorithm::kBackwardMI, options);
  ASSERT_GT(expect_old.answers.size(), 1u);

  SchedulerOptions sched_options;
  sched_options.num_workers = 0;  // manual drive: we control the clock
  Scheduler scheduler(sched_options);
  QueueSink sink;
  SubscribeOptions subscribe;
  subscribe.scheduler = &scheduler;
  subscribe.answer_credits = 1;  // park in credit-wait after one answer
  Subscription sub = live.Subscribe(Queries()[1], Algorithm::kBackwardMI,
                                    &sink, options, subscribe);
  for (int i = 0; i < 10000 && scheduler.Snapshot().credit_waiting == 0; ++i) {
    scheduler.DriveOne();
  }
  Scheduler::Stats parked = scheduler.Snapshot();
  ASSERT_EQ(parked.credit_waiting, 1u);
  // The parked task holds NO context lease but still pins epoch 0 —
  // exactly what keeps update reclamation honest.
  EXPECT_EQ(parked.contexts_attached, 0u);
  EXPECT_EQ(parked.pinned_epochs, 1u);
  EXPECT_EQ(parked.oldest_live_epoch, 0u);

  // Updates land while the task is parked; delivery then resumes and
  // must still stream the submit-time epoch's answers.
  for (int i = 0; i < 2; ++i) {
    UpdateBatch batch = RandBatch(rng, mirror.nodes.size());
    live.ApplyUpdate(batch);
    mirror.Apply(batch);
  }
  EXPECT_EQ(live.epoch(), 2u);

  sub.AddCredits(1000);
  while (!sub.finished()) {
    if (!scheduler.DriveOne()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  EXPECT_EQ(sub.Wait(), SubscribeStatus::kCompleted);
  std::vector<AnswerTree> got;
  AnswerTree t;
  while (sink.TryPop(&t)) got.push_back(t);
  ASSERT_EQ(got.size(), expect_old.answers.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(SameAnswer(expect_old.answers[i], got[i])) << "answer " << i;
  }
  // Terminal transition released the pin.
  EXPECT_EQ(scheduler.Snapshot().pinned_epochs, 0u);
}

// ---------------------------------------------------------------------
// Concurrency (the TSan proof)
// ---------------------------------------------------------------------

TEST(LiveGraph, ConcurrentWritersAndReadersStayCoherent) {
  std::mt19937_64 rng(51);
  Mirror mirror = SeedMirror(rng, 40, 80);
  Engine live = mirror.BuildEngine();

  // Pre-generate the batches so the writer thread needs no shared rng.
  std::vector<UpdateBatch> batches;
  {
    Mirror shadow = mirror;
    for (int i = 0; i < 8; ++i) {
      batches.push_back(RandBatch(rng, shadow.nodes.size()));
      shadow.Apply(batches.back());
    }
  }

  SchedulerOptions sched_options;
  sched_options.num_workers = 2;
  Scheduler scheduler(sched_options);
  std::atomic<bool> stop{false};

  std::thread writer([&]() {
    for (const UpdateBatch& batch : batches) {
      live.ApplyUpdate(batch);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r]() {
      SearchOptions options;
      options.k = 5;
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& keywords = Queries()[(r + i++) % Queries().size()];
        if (r == 0) {
          // Scheduled path: epoch pin rides with the task.
          QueueSink sink;
          SubscribeOptions subscribe;
          subscribe.scheduler = &scheduler;
          Subscription sub = live.Subscribe(
              keywords, Algorithm::kBidirectional, &sink, options, subscribe);
          EXPECT_EQ(sub.Wait(), SubscribeStatus::kCompleted);
        } else {
          // Inline path: whatever epoch the query pinned, its answer
          // order must be coherent (score-sorted, §4.5 output order).
          SearchResult result =
              live.Query(keywords, Algorithm::kBidirectional, options);
          EXPECT_TRUE(testing::ScoresNonIncreasing(result));
        }
      }
    });
  }
  writer.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  // Settled state must equal the fresh build of the final mirror.
  for (const UpdateBatch& batch : batches) mirror.Apply(batch);
  EXPECT_EQ(live.epoch(), batches.size());
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesFreshBuild(live, mirror, {}));
}

TEST(LiveGraph, DescribeAnswerDuringUpdates) {
  // DescribeAnswer renders labels out of one pinned snapshot, so a
  // publish landing mid-rendering can neither free the labels being
  // printed nor change them: old nodes keep their labels at every epoch.
  std::mt19937_64 rng(81);
  Mirror mirror = SeedMirror(rng, 40, 80);
  Engine live = mirror.BuildEngine();
  SearchOptions options;
  options.k = 6;
  SearchResult result =
      live.Query(Queries()[0], Algorithm::kBidirectional, options);
  ASSERT_FALSE(result.answers.empty());
  std::vector<std::string> expect;
  for (const AnswerTree& answer : result.answers) {
    expect.push_back(live.DescribeAnswer(answer));
  }

  // Every RandBatch adds at least one edge: each publish is structural.
  std::vector<UpdateBatch> batches;
  {
    Mirror shadow = mirror;
    for (int i = 0; i < 200; ++i) {
      batches.push_back(RandBatch(rng, shadow.nodes.size()));
      shadow.Apply(batches.back());
    }
  }
  std::atomic<bool> done{false};
  std::thread writer([&]() {
    for (const UpdateBatch& batch : batches) live.ApplyUpdate(batch);
    done.store(true, std::memory_order_release);
  });
  size_t renders = 0;
  while (!done.load(std::memory_order_acquire) || renders == 0) {
    for (size_t i = 0; i < result.answers.size(); ++i) {
      EXPECT_EQ(live.DescribeAnswer(result.answers[i]), expect[i]);
    }
    ++renders;
  }
  writer.join();
  EXPECT_EQ(live.epoch(), batches.size());
}

// ---------------------------------------------------------------------
// Fault injection: truncated paged file → kIoError, not silence
// ---------------------------------------------------------------------

TEST(LiveGraph, TruncatedPagedFileFailsQueriesLoudly) {
  std::mt19937_64 rng(71);
  Mirror mirror = SeedMirror(rng, 60, 120);
  const std::string path = TempPath("live_truncated.banks");
  {
    Engine seed = mirror.BuildEngine();
    PagedStoreOptions save;
    save.page_size = 1u << 10;
    save.inline_run_bytes = 0;
    ASSERT_TRUE(PagedStore::Save(seed.data(), seed.prestige(), path, save));
  }
  PagedOpenOptions open;
  open.pool_bytes = 2u << 10;  // two pages: almost nothing stays pooled
  std::optional<PagedData> pd = PagedStore::Open(path, open);
  ASSERT_TRUE(pd.has_value());
  std::shared_ptr<PagedStore> store = pd->store;
  Engine live(std::move(pd->data));
  SearchOptions options;
  options.k = 8;

  // Resolve BEFORE the truncation (postings are paged too) so the
  // searchers themselves hit the failed reads mid-expansion.
  std::vector<std::vector<NodeId>> origins = live.Resolve(Queries()[0]);
  SearchResult healthy =
      live.QueryResolved(origins, Algorithm::kBidirectional, options);
  EXPECT_EQ(healthy.metrics.io_errors, 0u);

  // Sever most of the file under the open store — the mid-run disk
  // corruption the silent zero-fill bug used to paper over.
  ASSERT_EQ(::truncate(path.c_str(), 1u << 10), 0);

  SearchResult partial =
      live.QueryResolved(origins, Algorithm::kBidirectional, options);
  // The search must terminate (not hang, not fabricate empty adjacency
  // silently) and report the failure in its metrics.
  EXPECT_GT(partial.metrics.io_errors, 0u);
  EXPECT_GT(store->pool().stats().io_errors, 0u);

  // Serving path: the task finishes kIoError and the scheduler counts it.
  SchedulerOptions sched_options;
  sched_options.num_workers = 2;
  sched_options.quantum_steps = 3;
  Scheduler scheduler(sched_options);
  QueueSink sink;
  SubscribeOptions subscribe;
  subscribe.scheduler = &scheduler;
  Subscription sub = live.SubscribeResolved(origins, Algorithm::kBidirectional,
                                            &sink, options, subscribe);
  EXPECT_EQ(sub.Wait(), SubscribeStatus::kIoError);
  EXPECT_EQ(scheduler.Snapshot().io_errors, 1u);
  EXPECT_EQ(scheduler.Snapshot().pinned_epochs, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace banks
