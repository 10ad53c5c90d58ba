// Differential tests for the out-of-core storage layer: a paged engine
// (adjacency + postings behind PagedStore/BufferPool) must return
// byte-identical answers and deterministic metrics to the in-RAM engine
// at every algorithm × bound mode × concurrent copies × pool size —
// including pools pathologically smaller than the working set, down to
// one page under the serving path's page-wait protocol.

#include "storage/paged_store.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "banks/engine.h"
#include "datasets/dblp_gen.h"
#include "search/answer.h"
#include "serve/queue_sink.h"
#include "serve/scheduler.h"
#include "test_util.h"
#include "text/inverted_index.h"

namespace banks {
namespace {

// Paths are per-process: ctest runs many tests from this binary
// concurrently, and a shared fixture file would be overwritten by one
// process while another reads pages from it.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

/// Execution-independent metric comparison: page_hits/page_misses and
/// timing fields are deliberately excluded (metrics.h).
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

/// Shared fixture: one small DBLP data graph, its in-RAM engine, and the
/// same graph saved as paged files in both layouts. Built once.
struct PagedEnv {
  PagedEnv()
      : ram(Engine::FromDatabase(GenerateDblp(SmallConfig()))),
        clustered_path(TempPath("paged_clustered.banks")),
        node_order_path(TempPath("paged_node_order.banks")) {
    PagedStoreOptions save;
    save.page_size = 4u << 10;  // small pages: many pages even at this size
    save.layout = PageLayout::kClustered;
    ok = PagedStore::Save(ram.data(), ram.prestige(), clustered_path, save);
    save.layout = PageLayout::kNodeOrder;
    ok = ok &&
         PagedStore::Save(ram.data(), ram.prestige(), node_order_path, save);

    // Keyword sets drawn from the generated vocabulary: a few real terms
    // spread across the frequency range, plus a relation-name keyword.
    const auto terms = ram.index().SortedTerms();
    auto term = [&](size_t frac_num, size_t frac_den) {
      return terms[terms.size() * frac_num / frac_den].first;
    };
    queries = {
        {term(1, 10), term(1, 2)},
        {term(1, 4), term(3, 4)},
        {term(1, 3), term(2, 3), term(9, 10)},
        {"author", term(1, 2)},
    };
  }

  static DblpConfig SmallConfig() {
    DblpConfig cfg;
    cfg.num_authors = 150;
    cfg.num_papers = 300;
    cfg.num_conferences = 12;
    cfg.seed = 7;
    return cfg;
  }

  Engine ram;
  std::string clustered_path;
  std::string node_order_path;
  bool ok = false;
  std::vector<std::vector<std::string>> queries;
};

const PagedEnv& Env() {
  static PagedEnv* env = new PagedEnv();
  return *env;
}

// ---------------------------------------------------------------------
// Structural roundtrip
// ---------------------------------------------------------------------

TEST(PagedStore, RoundtripPreservesGraphStructure) {
  ASSERT_TRUE(Env().ok);
  std::optional<PagedData> pd = PagedStore::Open(Env().clustered_path);
  ASSERT_TRUE(pd.has_value());
  const Graph& a = Env().ram.graph();
  const Graph& b = pd->data.graph;
  ASSERT_TRUE(b.paged());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    ASSERT_EQ(a.OutDegree(v), b.OutDegree(v)) << "node " << v;
    ASSERT_EQ(a.ForwardInDegree(v), b.ForwardInDegree(v)) << "node " << v;
    PagePin pin;
    std::span<const Edge> ae = a.OutEdges(v);
    std::span<const Edge> be = b.OutEdges(v, &pin);
    ASSERT_EQ(ae.size(), be.size()) << "node " << v;
    for (size_t i = 0; i < ae.size(); ++i) {
      ASSERT_EQ(ae[i].other, be[i].other) << "node " << v << " edge " << i;
      ASSERT_EQ(ae[i].weight, be[i].weight) << "node " << v << " edge " << i;
      ASSERT_EQ(ae[i].dir, be[i].dir) << "node " << v << " edge " << i;
    }
    PagePin in_pin;
    std::span<const Edge> ai = a.InEdges(v);
    std::span<const Edge> bi = b.InEdges(v, &in_pin);
    ASSERT_EQ(ai.size(), bi.size()) << "node " << v;
    for (size_t i = 0; i < ai.size(); ++i) {
      ASSERT_EQ(ai[i].other, bi[i].other) << "node " << v << " in " << i;
      ASSERT_EQ(ai[i].weight, bi[i].weight) << "node " << v << " in " << i;
    }
  }
  EXPECT_EQ(Env().ram.data().table_first_node, pd->data.table_first_node);
  EXPECT_EQ(Env().ram.data().node_labels, pd->data.node_labels);
  EXPECT_EQ(Env().ram.prestige(), pd->store->prestige());
}

TEST(PagedStore, RoundtripPreservesIndex) {
  ASSERT_TRUE(Env().ok);
  std::optional<PagedData> pd = PagedStore::Open(Env().node_order_path);
  ASSERT_TRUE(pd.has_value());
  const InvertedIndex& a = Env().ram.index();
  const InvertedIndex& b = pd->data.index;
  ASSERT_EQ(a.num_terms(), b.num_terms());
  for (const auto& [term, id] : a.SortedTerms()) {
    EXPECT_EQ(a.Match(term), b.Match(term)) << "term " << term;
  }
  // Relation-name keywords resolve through the relation table, which is
  // resident — but must still roundtrip.
  EXPECT_EQ(a.Match("author"), b.Match("author"));
  EXPECT_EQ(a.Match("paper"), b.Match("paper"));
}

TEST(PagedStore, OpenMissingFileFails) {
  EXPECT_FALSE(PagedStore::Open(TempPath("does_not_exist.banks")).has_value());
}

TEST(PagedStore, BothLayoutsHoldIdenticalLogicalData) {
  ASSERT_TRUE(Env().ok);
  std::optional<PagedData> c = PagedStore::Open(Env().clustered_path);
  std::optional<PagedData> n = PagedStore::Open(Env().node_order_path);
  ASSERT_TRUE(c.has_value() && n.has_value());
  EXPECT_EQ(c->store->layout(), PageLayout::kClustered);
  EXPECT_EQ(n->store->layout(), PageLayout::kNodeOrder);
  EXPECT_EQ(c->store->DataBytes(), n->store->DataBytes());
  const Graph& cg = c->data.graph;
  const Graph& ng = n->data.graph;
  ASSERT_EQ(cg.num_nodes(), ng.num_nodes());
  for (NodeId v = 0; v < cg.num_nodes(); ++v) {
    PagePin cp, np;
    std::span<const Edge> ce = cg.OutEdges(v, &cp);
    std::span<const Edge> ne = ng.OutEdges(v, &np);
    ASSERT_EQ(ce.size(), ne.size());
    for (size_t i = 0; i < ce.size(); ++i) {
      ASSERT_EQ(ce[i].other, ne[i].other) << "node " << v << " edge " << i;
    }
  }
}

TEST(PagedStore, OversizedRunsGetDedicatedPages) {
  // A star hub whose in-run exceeds the page size must still roundtrip:
  // oversized runs are stored on dedicated pages larger than page_size.
  DataGraph dg;
  dg.graph = testing::MakeStarGraph(2000);
  dg.index.Freeze();
  dg.table_first_node = {0, static_cast<NodeId>(dg.graph.num_nodes())};
  dg.node_labels.assign(dg.graph.num_nodes(), "n");
  PagedStoreOptions save;
  save.page_size = 512;  // hub run of 2000 edges cannot fit
  const std::string path = TempPath("paged_star.banks");
  ASSERT_TRUE(PagedStore::Save(dg, {}, path, save));
  std::optional<PagedData> pd = PagedStore::Open(path);
  ASSERT_TRUE(pd.has_value());
  bool saw_oversized = false;
  for (PageId p = 0; p < pd->store->NumPages(); ++p) {
    if (pd->store->PageLength(p) > save.page_size) saw_oversized = true;
  }
  EXPECT_TRUE(saw_oversized);
  PagePin pin;
  std::span<const Edge> hub = pd->data.graph.InEdges(0, &pin);
  ASSERT_EQ(hub.size(), 2000u);
  for (size_t i = 0; i < hub.size(); ++i) {
    ASSERT_EQ(hub[i].other, static_cast<NodeId>(i + 1));
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Differential grid: paged ≡ in-RAM
// ---------------------------------------------------------------------

// kServedOnePage runs the paged side as concurrent scheduler
// subscriptions, one expansion per quantum, over a one-page pool: nearly
// every pop misses and reads its page on the worker, and the
// subscriptions keep evicting each other's page.
enum class PoolSize { kPathological, kQuarter, kAmple, kServedOnePage };

struct DiffCase {
  Algorithm algorithm;
  BoundMode bound;
  /// Copies of every query run at once against the one paged engine,
  /// sharing its buffer pool; each must match in-RAM. (`ShardsN` is the
  /// historical instance suffix, from when N was the intra-query shard
  /// count.)
  size_t shards;
  PoolSize pool;
};

std::string PoolName(PoolSize p) {
  switch (p) {
    case PoolSize::kPathological:
      return "TinyPool";
    case PoolSize::kQuarter:
      return "QuarterPool";
    case PoolSize::kAmple:
      return "AmplePool";
    case PoolSize::kServedOnePage:
      return "ServedOnePagePool";
  }
  return "?";
}

std::string AlgoName(Algorithm a) {
  switch (a) {
    case Algorithm::kBackwardMI:
      return "BackwardMI";
    case Algorithm::kBackwardSI:
      return "BackwardSI";
    case Algorithm::kBidirectional:
      return "Bidirectional";
  }
  return "?";
}

std::string BoundName(BoundMode b) {
  switch (b) {
    case BoundMode::kTight:
      return "Tight";
    case BoundMode::kLoose:
      return "Loose";
    case BoundMode::kImmediate:
      return "Immediate";
  }
  return "?";
}

size_t PoolBytes(PoolSize p, size_t data_bytes) {
  switch (p) {
    case PoolSize::kPathological:
      return 8u << 10;  // two 4K pages — far below any working set
    case PoolSize::kQuarter:
      return data_bytes / 4;
    case PoolSize::kAmple:
      return data_bytes * 2;
    case PoolSize::kServedOnePage:
      return 4u << 10;  // one 4K page
  }
  return 0;
}

class PagedDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(PagedDifferentialTest, PagedMatchesInRam) {
  ASSERT_TRUE(Env().ok);
  const DiffCase& c = GetParam();
  // Probe DataBytes once so the pool budget can scale with the file.
  PagedOpenOptions open;
  {
    std::optional<PagedData> probe = PagedStore::Open(Env().clustered_path);
    ASSERT_TRUE(probe.has_value());
    open.pool_bytes = PoolBytes(c.pool, probe->store->DataBytes());
  }
  std::optional<PagedData> pd = PagedStore::Open(Env().clustered_path, open);
  ASSERT_TRUE(pd.has_value());
  std::shared_ptr<PagedStore> store = pd->store;
  Engine paged(std::move(pd->data));

  SearchOptions options;
  options.k = 8;
  options.bound = c.bound;
  if (c.pool == PoolSize::kServedOnePage) {
    SchedulerOptions sched_options;
    sched_options.num_workers = 2;
    sched_options.quantum_steps = 1;
    Scheduler scheduler(sched_options);
    SubscribeOptions subscribe;
    subscribe.scheduler = &scheduler;
    const auto& queries = Env().queries;
    const size_t subscriptions = queries.size() * c.shards;
    std::vector<QueueSink> sinks(subscriptions);
    std::vector<Subscription> subs;
    for (size_t i = 0; i < subscriptions; ++i) {
      subs.push_back(paged.Subscribe(queries[i % queries.size()], c.algorithm,
                                     &sinks[i], options, subscribe));
    }
    uint64_t search_page_misses = 0;
    for (size_t i = 0; i < subscriptions; ++i) {
      ASSERT_EQ(subs[i].Wait(), SubscribeStatus::kCompleted);
      SearchResult got;
      AnswerTree answer;
      while (sinks[i].TryPop(&answer)) got.answers.push_back(answer);
      got.metrics = sinks[i].final_metrics();
      search_page_misses += got.metrics.page_misses;
      ExpectSameResult(Env().ram.Query(queries[i % queries.size()],
                                       c.algorithm, options),
                       got);
    }
    // Quanta read their pages on the workers: the one-page pool made
    // the searches miss, and the scheduler counted the quanta that did.
    EXPECT_GT(search_page_misses, 0u) << "one-page pool never missed";
    EXPECT_GT(scheduler.Snapshot().page_waits, 0u)
        << "no quantum read a page";
    return;
  }
  for (const auto& keywords : Env().queries) {
    SearchResult expect = Env().ram.Query(keywords, c.algorithm, options);
    std::vector<SearchResult> got(c.shards);
    testing::RunConcurrently(c.shards, [&](size_t i) {
      got[i] = paged.Query(keywords, c.algorithm, options);
    });
    for (const SearchResult& copy : got) ExpectSameResult(expect, copy);
  }
  if (c.pool == PoolSize::kPathological) {
    // The tiny pool must actually have paged: a zero-miss run would mean
    // this suite never exercised eviction at all.
    EXPECT_GT(store->pool().stats().misses, 0u);
    EXPECT_GT(store->pool().stats().evictions, 0u);
  }
}

std::vector<DiffCase> AllDiffCases() {
  std::vector<DiffCase> cases;
  for (Algorithm a : {Algorithm::kBackwardMI, Algorithm::kBackwardSI,
                      Algorithm::kBidirectional}) {
    for (BoundMode b :
         {BoundMode::kTight, BoundMode::kLoose, BoundMode::kImmediate}) {
      for (size_t shards : {size_t{1}, size_t{4}}) {
        for (PoolSize p : {PoolSize::kPathological, PoolSize::kQuarter,
                           PoolSize::kAmple, PoolSize::kServedOnePage}) {
          // The served case already runs every query as concurrent
          // subscriptions; one copy of each keeps it affordable.
          if (p == PoolSize::kServedOnePage && shards != 1) continue;
          // Value-initialized, so the padding gtest prints in the test
          // name is zero rather than stack garbage.
          DiffCase c{};
          c.algorithm = a;
          c.bound = b;
          c.shards = shards;
          c.pool = p;
          cases.push_back(c);
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PagedDifferentialTest, ::testing::ValuesIn(AllDiffCases()),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      const DiffCase& c = info.param;
      return AlgoName(c.algorithm) + BoundName(c.bound) + "Shards" +
             std::to_string(c.shards) + PoolName(c.pool);
    });

// ---------------------------------------------------------------------
// Layout + determinism properties
// ---------------------------------------------------------------------

TEST(PagedStore, NodeOrderLayoutAlsoMatchesInRam) {
  ASSERT_TRUE(Env().ok);
  PagedOpenOptions open;
  open.pool_bytes = 16u << 10;  // small: forces paging on both layouts
  std::optional<PagedData> pd = PagedStore::Open(Env().node_order_path, open);
  ASSERT_TRUE(pd.has_value());
  Engine paged(std::move(pd->data));
  SearchOptions options;
  options.k = 8;
  for (const auto& keywords : Env().queries) {
    SearchResult expect =
        Env().ram.Query(keywords, Algorithm::kBidirectional, options);
    SearchResult got = paged.Query(keywords, Algorithm::kBidirectional, options);
    ExpectSameResult(expect, got);
  }
}

TEST(PagedStore, PagedRunsAreDeterministicAcrossRepeats) {
  ASSERT_TRUE(Env().ok);
  PagedOpenOptions open;
  open.pool_bytes = 8u << 10;
  std::optional<PagedData> pd = PagedStore::Open(Env().clustered_path, open);
  ASSERT_TRUE(pd.has_value());
  Engine paged(std::move(pd->data));
  SearchOptions options;
  options.k = 8;
  SearchResult first =
      paged.Query(Env().queries[0], Algorithm::kBidirectional, options);
  for (int run = 0; run < 3; ++run) {
    SearchResult again =
        paged.Query(Env().queries[0], Algorithm::kBidirectional, options);
    ExpectSameResult(first, again);
  }
}

TEST(PagedStore, ResolveMatchesInRam) {
  ASSERT_TRUE(Env().ok);
  PagedOpenOptions open;
  open.pool_bytes = 8u << 10;  // postings pages fault in on demand
  std::optional<PagedData> pd = PagedStore::Open(Env().clustered_path, open);
  ASSERT_TRUE(pd.has_value());
  Engine paged(std::move(pd->data));
  for (const auto& keywords : Env().queries) {
    EXPECT_EQ(Env().ram.Resolve(keywords), paged.Resolve(keywords));
  }
}

TEST(PagedStore, SearchMetricsCountPageTraffic) {
  ASSERT_TRUE(Env().ok);
  PagedOpenOptions open;
  open.pool_bytes = 8u << 10;
  std::optional<PagedData> pd = PagedStore::Open(Env().clustered_path, open);
  ASSERT_TRUE(pd.has_value());
  Engine paged(std::move(pd->data));
  SearchResult r =
      paged.Query(Env().queries[0], Algorithm::kBidirectional, {});
  EXPECT_GT(r.metrics.page_hits + r.metrics.page_misses, 0u);
  // In-RAM searches never touch the pool.
  SearchResult ram_r =
      Env().ram.Query(Env().queries[0], Algorithm::kBidirectional, {});
  EXPECT_EQ(ram_r.metrics.page_hits, 0u);
  EXPECT_EQ(ram_r.metrics.page_misses, 0u);
}

TEST(PagedStore, SaveWithoutPrestigeStillOpens) {
  ASSERT_TRUE(Env().ok);
  const std::string path = TempPath("paged_no_prestige.banks");
  ASSERT_TRUE(PagedStore::Save(Env().ram.data(), {}, path));
  std::optional<PagedData> pd = PagedStore::Open(path);
  ASSERT_TRUE(pd.has_value());
  EXPECT_TRUE(pd->store->prestige().empty());
  // No stored prestige: the engine recomputes PageRank through the pool,
  // landing on the same scores as the resident graph.
  Engine paged(std::move(pd->data));
  ASSERT_EQ(paged.prestige().size(), Env().ram.prestige().size());
  for (size_t i = 0; i < paged.prestige().size(); ++i) {
    ASSERT_NEAR(paged.prestige()[i], Env().ram.prestige()[i], 1e-12)
        << "node " << i;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace banks
