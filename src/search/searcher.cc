#include "search/searcher.h"

#include "search/backward_mi.h"
#include "search/backward_si.h"
#include "search/bidirectional.h"
#include "storage/buffer_pool.h"

namespace banks {

bool SliceGuard::BookPin(const PagePin& pin) const {
  SearchMetrics& m = ss_->result.metrics;
  if (pin.failed()) {
    ++m.io_errors;
    return false;
  }
  if (!pin.empty()) ++(pin.hit() ? m.page_hits : m.page_misses);
  return true;
}

SearchResult Searcher::Search(const std::vector<std::vector<NodeId>>& origins) {
  if (!owned_context_) owned_context_ = std::make_unique<SearchContext>();
  return Search(origins, owned_context_.get());
}

SearchResult Searcher::Search(const std::vector<std::vector<NodeId>>& origins,
                              SearchContext* context) const {
  context->stream.Reset();
  Resume(origins, context, StepLimits{});  // unbounded: must complete
  SearchResult result = std::move(context->stream.result);
  // Leave the stream state fresh: the moved-from result must not be
  // mistaken for a finished query by a later Resume on this context.
  context->stream.Reset();
  return result;
}

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kBackwardMI:
      return "MI-Backward";
    case Algorithm::kBackwardSI:
      return "SI-Backward";
    case Algorithm::kBidirectional:
      return "Bidirectional";
  }
  return "Unknown";
}

std::unique_ptr<Searcher> CreateSearcher(Algorithm algorithm,
                                         const Graph& graph,
                                         const std::vector<double>& prestige,
                                         const SearchOptions& options) {
  switch (algorithm) {
    case Algorithm::kBackwardMI:
      return std::make_unique<BackwardMISearcher>(graph, prestige, options);
    case Algorithm::kBackwardSI:
      return std::make_unique<BackwardSISearcher>(graph, prestige, options);
    case Algorithm::kBidirectional:
      return std::make_unique<BidirectionalSearcher>(graph, prestige, options);
  }
  return nullptr;
}

}  // namespace banks
