// Golden values for the Bidirectional searcher's explored-edge rule
// (ExploreEdge, Figure 3): an explored edge u→v is recorded in P_v/C_u
// once, and spreads activation once per direction. The fixtures hold
// what that rule must get right — parallel u→v edges from two-way links,
// self-loops, every EdgeFilter, and dmax cut-offs that pop states
// without expanding them — and each case pins the released answers
// (root, score, signature, in order) and the search counters. The values
// were recorded while a per-edge hash map still tracked explored edges;
// the per-state bits that replaced it must reproduce them exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "prestige/pagerank.h"
#include "search/answer.h"
#include "search/searcher.h"
#include "util/rng.h"

namespace banks {
namespace {

using Origins = std::vector<std::vector<NodeId>>;

struct Golden {
  const char* name;
  uint64_t explored;
  uint64_t touched;
  uint64_t relaxed;
  uint64_t propagation;
  uint64_t generated;
  size_t answers;
  uint64_t fingerprint;  // AnswerFingerprint of the released answers
};

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h * 0xFF51AFD7ED558CCDULL;
}

// Roots, scores (to 1e-12) and signatures of the answers, in order.
uint64_t AnswerFingerprint(const SearchResult& r) {
  uint64_t h = 0;
  for (const AnswerTree& t : r.answers) {
    h = Mix(h, t.root);
    h = Mix(h, static_cast<uint64_t>(std::llround(t.score * 1e12)));
    h = Mix(h, t.Signature());
  }
  return h;
}

// Ten nodes with two-way links 0↔1, 2↔3 and 1↔4 (so every backward
// edge of one direction parallels the forward edge of the other) and
// self-loops at 4 and 6.
Graph MakeTwoWayGraph() {
  GraphBuilder b;
  b.AddNodes(10);
  const std::pair<NodeId, NodeId> links[] = {
      {0, 1}, {1, 0}, {2, 3}, {3, 2}, {1, 4}, {4, 1}, {4, 4}, {6, 6},
      {1, 2}, {3, 5}, {5, 6}, {6, 7}, {7, 0}, {8, 4}, {9, 8}, {4, 9},
      {2, 7}};
  double w = 1.0;
  for (const auto& [u, v] : links) {
    b.AddEdge(u, v, w);
    w = w >= 3.0 ? 1.0 : w + 0.5;
  }
  GraphBuildOptions options;
  options.add_backward_edges = true;
  return b.Build(options);
}

// Sixty nodes of seeded random edges, plus ten two-way links and four
// self-loops.
Graph MakeRandomTwoWayGraph() {
  Rng rng(22);
  GraphBuilder b;
  constexpr size_t kNodes = 60;
  b.AddNodes(kNodes);
  auto node = [&] { return static_cast<NodeId>(rng.Below(kNodes)); };
  for (int e = 0; e < 150; ++e) {
    NodeId u = node();
    NodeId v = node();
    if (u != v) b.AddEdge(u, v, 1.0 + rng.Below(3));
  }
  for (int e = 0; e < 10; ++e) {
    NodeId u = node();
    NodeId v = node();
    if (u == v) continue;
    b.AddEdge(u, v, 1.0 + rng.Below(3));
    b.AddEdge(v, u, 1.0 + rng.Below(3));
  }
  for (int e = 0; e < 4; ++e) {
    NodeId u = node();
    b.AddEdge(u, u, 2.0);
  }
  GraphBuildOptions options;
  options.add_backward_edges = true;
  return b.Build(options);
}

struct Case {
  std::string name;
  SearchOptions options;
  size_t query;
};

const char* FilterName(EdgeFilter f) {
  switch (f) {
    case EdgeFilter::kAll:
      return "all";
    case EdgeFilter::kForwardOnly:
      return "fwd";
    case EdgeFilter::kBackwardOnly:
      return "bwd";
  }
  return "?";
}

// Every EdgeFilter × dmax {1, 2, 8} × {tight, loose} under max
// activation, then the sum combine (which adds every spread, so a
// duplicated spread would show) at dmax 8 with all edges.
std::vector<Case> Cases(size_t num_queries) {
  std::vector<Case> cases;
  for (size_t q = 0; q < num_queries; ++q) {
    for (EdgeFilter filter : {EdgeFilter::kAll, EdgeFilter::kForwardOnly,
                              EdgeFilter::kBackwardOnly}) {
      for (uint32_t dmax : {1u, 2u, 8u}) {
        for (BoundMode bound : {BoundMode::kTight, BoundMode::kLoose}) {
          SearchOptions o;
          o.k = 5;
          o.edge_filter = filter;
          o.dmax = dmax;
          o.bound = bound;
          o.release_patience = 16;
          char name[64];
          std::snprintf(name, sizeof(name), "q%zu/%s/d%u/%s", q,
                        FilterName(filter), dmax,
                        bound == BoundMode::kTight ? "tight" : "loose");
          cases.push_back({name, o, q});
        }
      }
    }
    for (BoundMode bound : {BoundMode::kTight, BoundMode::kLoose}) {
      SearchOptions o;
      o.k = 5;
      o.combine = ActivationCombine::kSum;
      o.bound = bound;
      o.release_patience = 16;
      char name[64];
      std::snprintf(name, sizeof(name), "q%zu/sum/%s", q,
                    bound == BoundMode::kTight ? "tight" : "loose");
      cases.push_back({name, o, q});
    }
  }
  return cases;
}

// One case as its table row, so a mismatch prints the row it got.
std::string Row(const Golden& g) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", %llu, %llu, %llu, %llu, %llu, %zu, 0x%016llxULL},",
                g.name, static_cast<unsigned long long>(g.explored),
                static_cast<unsigned long long>(g.touched),
                static_cast<unsigned long long>(g.relaxed),
                static_cast<unsigned long long>(g.propagation),
                static_cast<unsigned long long>(g.generated), g.answers,
                static_cast<unsigned long long>(g.fingerprint));
  return buf;
}

void ExpectGolden(const Graph& graph, const Origins* queries,
                  size_t num_queries, const std::vector<Golden>& golden) {
  const std::vector<double> prestige = ComputePrestige(graph);
  const std::vector<Case> cases = Cases(num_queries);
  EXPECT_EQ(cases.size(), golden.size());
  for (size_t c = 0; c < cases.size(); ++c) {
    const Case& tc = cases[c];
    SearchResult r =
        CreateSearcher(Algorithm::kBidirectional, graph, prestige, tc.options)
            ->Search(queries[tc.query]);
    const SearchMetrics& m = r.metrics;
    const Golden actual{tc.name.c_str(),     m.nodes_explored,
                        m.nodes_touched,     m.edges_relaxed,
                        m.propagation_steps, m.answers_generated,
                        r.answers.size(),    AnswerFingerprint(r)};
    EXPECT_EQ(Row(actual), c < golden.size() ? Row(golden[c]) : "");
  }
}

TEST(BidirectionalGolden, TwoWayLinksAndSelfLoops) {
  const Origins queries[] = {
      {{0}, {5}},
      {{0, 3}, {6}, {9}},
      {{4}, {4, 6}},
  };
  const std::vector<Golden> golden = {
      {"q0/all/d1/tight", 12, 12, 10, 8, 0, 0, 0x0000000000000000ULL},
      {"q0/all/d1/loose", 12, 12, 10, 8, 0, 0, 0x0000000000000000ULL},
      {"q0/all/d2/tight", 16, 16, 40, 106, 5, 3, 0xc51a1b09809532c4ULL},
      {"q0/all/d2/loose", 16, 16, 40, 106, 5, 3, 0xc51a1b09809532c4ULL},
      {"q0/all/d8/tight", 20, 20, 68, 118, 5, 3, 0xc51a1b09809532c4ULL},
      {"q0/all/d8/loose", 20, 20, 68, 118, 5, 3, 0xc51a1b09809532c4ULL},
      {"q0/fwd/d1/tight", 11, 11, 5, 6, 0, 0, 0x0000000000000000ULL},
      {"q0/fwd/d1/loose", 11, 11, 5, 6, 0, 0, 0x0000000000000000ULL},
      {"q0/fwd/d2/tight", 16, 16, 20, 57, 5, 3, 0x0b6a7ae6a24bf0e5ULL},
      {"q0/fwd/d2/loose", 16, 16, 20, 57, 5, 3, 0x0b6a7ae6a24bf0e5ULL},
      {"q0/fwd/d8/tight", 20, 20, 34, 69, 5, 3, 0x0b6a7ae6a24bf0e5ULL},
      {"q0/fwd/d8/loose", 20, 20, 34, 69, 5, 3, 0x0b6a7ae6a24bf0e5ULL},
      {"q0/bwd/d1/tight", 10, 10, 5, 4, 0, 0, 0x0000000000000000ULL},
      {"q0/bwd/d1/loose", 10, 10, 5, 4, 0, 0, 0x0000000000000000ULL},
      {"q0/bwd/d2/tight", 15, 15, 18, 49, 3, 3, 0xa7497649b759da16ULL},
      {"q0/bwd/d2/loose", 15, 15, 18, 49, 3, 3, 0xa7497649b759da16ULL},
      {"q0/bwd/d8/tight", 20, 20, 34, 57, 3, 3, 0xa7497649b759da16ULL},
      {"q0/bwd/d8/loose", 20, 20, 34, 57, 3, 3, 0xa7497649b759da16ULL},
      {"q0/sum/tight", 20, 20, 68, 28, 5, 3, 0xc51a1b09809532c4ULL},
      {"q0/sum/loose", 20, 20, 68, 28, 5, 3, 0xc51a1b09809532c4ULL},
      {"q1/all/d1/tight", 20, 20, 24, 42, 0, 0, 0x0000000000000000ULL},
      {"q1/all/d1/loose", 20, 20, 24, 42, 0, 0, 0x0000000000000000ULL},
      {"q1/all/d2/tight", 20, 20, 68, 246, 7, 5, 0xe782bd994cf5afffULL},
      {"q1/all/d2/loose", 20, 20, 68, 246, 7, 5, 0xe782bd994cf5afffULL},
      {"q1/all/d8/tight", 20, 20, 68, 246, 7, 5, 0xe782bd994cf5afffULL},
      {"q1/all/d8/loose", 20, 20, 68, 246, 7, 5, 0xe782bd994cf5afffULL},
      {"q1/fwd/d1/tight", 19, 19, 12, 26, 0, 0, 0x0000000000000000ULL},
      {"q1/fwd/d1/loose", 19, 19, 12, 26, 0, 0, 0x0000000000000000ULL},
      {"q1/fwd/d2/tight", 20, 20, 34, 143, 5, 4, 0xb0dba9e83f0237c5ULL},
      {"q1/fwd/d2/loose", 20, 20, 34, 143, 5, 4, 0xb0dba9e83f0237c5ULL},
      {"q1/fwd/d8/tight", 20, 20, 34, 143, 5, 4, 0xb0dba9e83f0237c5ULL},
      {"q1/fwd/d8/loose", 20, 20, 34, 143, 5, 4, 0xb0dba9e83f0237c5ULL},
      {"q1/bwd/d1/tight", 19, 19, 12, 27, 0, 0, 0x0000000000000000ULL},
      {"q1/bwd/d1/loose", 19, 19, 12, 27, 0, 0, 0x0000000000000000ULL},
      {"q1/bwd/d2/tight", 20, 20, 34, 161, 7, 5, 0x7935c860240a04bbULL},
      {"q1/bwd/d2/loose", 20, 20, 34, 161, 7, 5, 0x7935c860240a04bbULL},
      {"q1/bwd/d8/tight", 20, 20, 34, 161, 7, 5, 0x7935c860240a04bbULL},
      {"q1/bwd/d8/loose", 20, 20, 34, 161, 7, 5, 0x7935c860240a04bbULL},
      {"q1/sum/tight", 20, 20, 68, 51, 7, 5, 0xe782bd994cf5afffULL},
      {"q1/sum/loose", 20, 20, 68, 51, 7, 5, 0xe782bd994cf5afffULL},
      {"q2/all/d1/tight", 14, 14, 20, 14, 1, 1, 0x5d6ab03050313705ULL},
      {"q2/all/d1/loose", 14, 14, 20, 14, 1, 1, 0x5d6ab03050313705ULL},
      {"q2/all/d2/tight", 20, 20, 48, 36, 4, 3, 0x8b775e5cb7dbebb4ULL},
      {"q2/all/d2/loose", 20, 20, 48, 36, 4, 3, 0x8b775e5cb7dbebb4ULL},
      {"q2/all/d8/tight", 20, 20, 68, 70, 5, 4, 0x16e5445a8fe89d9bULL},
      {"q2/all/d8/loose", 20, 20, 68, 70, 5, 4, 0x16e5445a8fe89d9bULL},
      {"q2/fwd/d1/tight", 12, 12, 10, 12, 1, 1, 0x5d6ab03050313705ULL},
      {"q2/fwd/d1/loose", 12, 12, 10, 12, 1, 1, 0x5d6ab03050313705ULL},
      {"q2/fwd/d2/tight", 18, 18, 22, 24, 2, 2, 0x011efd6277335060ULL},
      {"q2/fwd/d2/loose", 18, 18, 22, 24, 2, 2, 0x011efd6277335060ULL},
      {"q2/fwd/d8/tight", 20, 20, 34, 48, 4, 3, 0x4ada159c9d47c168ULL},
      {"q2/fwd/d8/loose", 20, 20, 34, 48, 4, 3, 0x4ada159c9d47c168ULL},
      {"q2/bwd/d1/tight", 12, 12, 10, 8, 1, 1, 0x5d6ab03050313705ULL},
      {"q2/bwd/d1/loose", 12, 12, 10, 8, 1, 1, 0x5d6ab03050313705ULL},
      {"q2/bwd/d2/tight", 18, 18, 23, 22, 2, 2, 0x9cfc8b8f3fac0169ULL},
      {"q2/bwd/d2/loose", 18, 18, 23, 22, 2, 2, 0x9cfc8b8f3fac0169ULL},
      {"q2/bwd/d8/tight", 20, 20, 34, 42, 3, 3, 0x1d6739525f4c00b0ULL},
      {"q2/bwd/d8/loose", 20, 20, 34, 42, 3, 3, 0x1d6739525f4c00b0ULL},
      {"q2/sum/tight", 20, 20, 68, 11, 5, 4, 0x16e5445a8fe89d9bULL},
      {"q2/sum/loose", 20, 20, 68, 11, 5, 4, 0x16e5445a8fe89d9bULL},
  };
  ExpectGolden(MakeTwoWayGraph(), queries, 3, golden);
}

TEST(BidirectionalGolden, RandomGraphWithTwoWayLinksAndSelfLoops) {
  const Origins queries[] = {
      {{3, 17, 40}, {8, 51}},
      {{1, 2, 33}, {12}, {25, 44, 58}},
  };
  const std::vector<Golden> golden = {
      {"q0/all/d1/tight", 44, 44, 50, 178, 5, 4, 0x5c06317b5fea8cceULL},
      {"q0/all/d1/loose", 44, 44, 50, 178, 5, 4, 0x5c06317b5fea8cceULL},
      {"q0/all/d2/tight", 110, 110, 278, 673, 21, 5, 0xe13e90721f92abb1ULL},
      {"q0/all/d2/loose", 64, 110, 278, 673, 21, 5, 0x6ca04f25c0b42e82ULL},
      {"q0/all/d8/tight", 120, 120, 684, 989, 36, 5, 0x70972cc99cbccb4fULL},
      {"q0/all/d8/loose", 64, 120, 426, 872, 30, 5, 0xde2d783ef387f6cbULL},
      {"q0/fwd/d1/tight", 37, 37, 25, 85, 2, 2, 0x7b8ac7a548400d02ULL},
      {"q0/fwd/d1/loose", 37, 37, 25, 85, 2, 2, 0x7b8ac7a548400d02ULL},
      {"q0/fwd/d2/tight", 90, 90, 123, 299, 14, 5, 0x95c7db645790693dULL},
      {"q0/fwd/d2/loose", 64, 83, 123, 299, 14, 5, 0x95c7db645790693dULL},
      {"q0/fwd/d8/tight", 117, 117, 333, 588, 25, 5, 0x2db1f5949e61e776ULL},
      {"q0/fwd/d8/loose", 64, 96, 194, 451, 22, 5, 0x2db1f5949e61e776ULL},
      {"q0/bwd/d1/tight", 39, 39, 25, 81, 3, 3, 0x134094b7dbd41fbdULL},
      {"q0/bwd/d1/loose", 39, 39, 25, 81, 3, 3, 0x134094b7dbd41fbdULL},
      {"q0/bwd/d2/tight", 90, 90, 125, 288, 13, 5, 0x1be890bf5fdc7d43ULL},
      {"q0/bwd/d2/loose", 90, 90, 125, 288, 13, 5, 0x1be890bf5fdc7d43ULL},
      {"q0/bwd/d8/tight", 115, 115, 323, 621, 32, 5, 0x1be890bf5fdc7d43ULL},
      {"q0/bwd/d8/loose", 115, 115, 323, 621, 32, 5, 0x1be890bf5fdc7d43ULL},
      {"q0/sum/tight", 120, 120, 684, 244, 36, 5, 0x70972cc99cbccb4fULL},
      {"q0/sum/loose", 120, 120, 684, 244, 36, 5, 0x70972cc99cbccb4fULL},
      {"q1/all/d1/tight", 64, 64, 62, 239, 3, 2, 0x660e15e3b8858732ULL},
      {"q1/all/d1/loose", 64, 64, 62, 239, 3, 2, 0x660e15e3b8858732ULL},
      {"q1/all/d2/tight", 114, 114, 378, 1990, 39, 5, 0x9c61bf92379ba05eULL},
      {"q1/all/d2/loose", 114, 114, 378, 1990, 39, 5, 0x9c61bf92379ba05eULL},
      {"q1/all/d8/tight", 120, 120, 684, 2471, 51, 5, 0x9c61bf92379ba05eULL},
      {"q1/all/d8/loose", 120, 120, 684, 2471, 51, 5, 0x9c61bf92379ba05eULL},
      {"q1/fwd/d1/tight", 57, 57, 31, 95, 2, 2, 0xc20aa5447e22e774ULL},
      {"q1/fwd/d1/loose", 57, 57, 31, 95, 2, 2, 0xc20aa5447e22e774ULL},
      {"q1/fwd/d2/tight", 106, 106, 187, 880, 31, 5, 0xaf1a45f43cc9b8a5ULL},
      {"q1/fwd/d2/loose", 106, 106, 187, 880, 31, 5, 0xaf1a45f43cc9b8a5ULL},
      {"q1/fwd/d8/tight", 119, 119, 338, 1142, 39, 5, 0x30fdc2e9b6390896ULL},
      {"q1/fwd/d8/loose", 119, 119, 338, 1142, 39, 5, 0x30fdc2e9b6390896ULL},
      {"q1/bwd/d1/tight", 51, 51, 31, 88, 0, 0, 0x0000000000000000ULL},
      {"q1/bwd/d1/loose", 51, 51, 31, 88, 0, 0, 0x0000000000000000ULL},
      {"q1/bwd/d2/tight", 99, 99, 169, 824, 27, 5, 0x4f69f2df962728fcULL},
      {"q1/bwd/d2/loose", 99, 99, 169, 824, 27, 5, 0x4f69f2df962728fcULL},
      {"q1/bwd/d8/tight", 114, 114, 321, 1114, 42, 5, 0x4f69f2df962728fcULL},
      {"q1/bwd/d8/loose", 114, 114, 321, 1114, 42, 5, 0x4f69f2df962728fcULL},
      {"q1/sum/tight", 120, 120, 684, 585, 49, 5, 0x2c660d354dbf82fcULL},
      {"q1/sum/loose", 120, 120, 684, 585, 49, 5, 0x2c660d354dbf82fcULL},
  };
  ExpectGolden(MakeRandomTwoWayGraph(), queries, 2, golden);
}

}  // namespace
}  // namespace banks
