#include "test_util.h"

#include <utility>

#include "prestige/pagerank.h"
#include "util/rng.h"

namespace banks::testing {

Fig4Graph MakeFig4Graph() {
  Fig4Graph out;
  GraphBuilder b;
  NodeType paper_t = b.InternType("paper");
  NodeType author_t = b.InternType("author");
  NodeType writes_t = b.InternType("writes");

  // 100 papers whose titles contain "database"; the last is the root of
  // the desired answer (co-authored by James and John).
  for (int i = 0; i < 100; ++i) {
    out.database_papers.push_back(b.AddNode(paper_t));
  }
  out.root_paper = out.database_papers.back();

  out.james = b.AddNode(author_t);
  out.john = b.AddNode(author_t);

  // James wrote only the root paper.
  {
    NodeId w = b.AddNode(writes_t);
    out.writes_nodes.push_back(w);
    b.AddEdge(w, out.james);
    b.AddEdge(w, out.root_paper);
  }
  // John wrote the root paper and 47 other (non-database) papers —
  // the large fan-in that hurts Backward search.
  {
    NodeId w = b.AddNode(writes_t);
    out.writes_nodes.push_back(w);
    b.AddEdge(w, out.john);
    b.AddEdge(w, out.root_paper);
  }
  for (int i = 0; i < 47; ++i) {
    NodeId p = b.AddNode(paper_t);  // non-database paper
    NodeId w = b.AddNode(writes_t);
    out.writes_nodes.push_back(w);
    b.AddEdge(w, out.john);
    b.AddEdge(w, p);
  }
  out.graph = b.Build();
  return out;
}

Graph MakePathGraph(size_t n, bool backward_edges) {
  GraphBuilder b;
  b.AddNodes(n);
  for (size_t i = 0; i + 1 < n; ++i) {
    b.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  }
  GraphBuildOptions options;
  options.add_backward_edges = backward_edges;
  return b.Build(options);
}

Graph MakeStarGraph(size_t leaves, bool backward_edges) {
  GraphBuilder b;
  b.AddNodes(leaves + 1);
  for (size_t i = 1; i <= leaves; ++i) {
    b.AddEdge(static_cast<NodeId>(i), 0);
  }
  GraphBuildOptions options;
  options.add_backward_edges = backward_edges;
  return b.Build(options);
}

Graph MakeRandomGraph(size_t nodes, size_t edges, uint64_t seed,
                      bool backward_edges) {
  Rng rng(seed);
  GraphBuilder b;
  b.AddNodes(nodes);
  for (size_t e = 0; e < edges; ++e) {
    NodeId u = static_cast<NodeId>(rng.Below(nodes));
    NodeId v = static_cast<NodeId>(rng.Below(nodes));
    if (u == v) continue;
    double w = 1.0 + rng.Below(3);  // weights in {1, 2, 3}
    b.AddEdge(u, v, w);
  }
  GraphBuildOptions options;
  options.add_backward_edges = backward_edges;
  return b.Build(options);
}

SearchResult RunSearch(Algorithm algorithm, const Graph& graph,
                       const std::vector<std::vector<NodeId>>& origins,
                       const SearchOptions& options) {
  std::vector<double> prestige = UniformPrestige(graph.num_nodes());
  return CreateSearcher(algorithm, graph, prestige, options)->Search(origins);
}

std::string ValidateAnswers(const Graph& graph, const SearchResult& result) {
  for (const AnswerTree& tree : result.answers) {
    std::string error;
    if (!tree.Validate(graph, &error)) return error;
  }
  return "";
}

bool ScoresNonIncreasing(const SearchResult& result) {
  for (size_t i = 1; i < result.answers.size(); ++i) {
    if (result.answers[i].score > result.answers[i - 1].score + 1e-9) {
      return false;
    }
  }
  return true;
}

BackgroundCopies::BackgroundCopies(size_t copies, std::function<bool()> run)
    : run_(std::move(run)) {
  threads_.reserve(copies);
  for (size_t i = 0; i < copies; ++i) {
    threads_.emplace_back([this] {
      do {
        if (!run_()) mismatches_.fetch_add(1);
        calls_.fetch_add(1);
      } while (!stop_.load());
    });
  }
}

size_t BackgroundCopies::Join() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  return mismatches_.load();
}

void RunConcurrently(size_t n, const std::function<void(size_t)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) threads.emplace_back(fn, i);
  for (std::thread& t : threads) t.join();
}

}  // namespace banks::testing
