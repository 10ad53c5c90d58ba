#ifndef BANKS_SEARCH_BIDIRECTIONAL_H_
#define BANKS_SEARCH_BIDIRECTIONAL_H_

#include "search/searcher.h"

namespace banks {

/// Bidirectional expanding search — the paper's contribution (§4).
///
/// Two concurrent frontiers over one shared per-node state:
///  * the incoming iterator (Q_in) expands backward from keyword nodes,
///  * the outgoing iterator (Q_out) expands forward from potential
///    answer roots (every node the incoming iterator reaches).
///
/// Both queues are prioritized by spreading activation (§4.3): keyword
/// node u seeds a_{u,i} = prestige(u)/|S_i|; a node spreads fraction μ
/// of its per-keyword activation to neighbours, divided in inverse
/// proportion to edge weight over *all* competing neighbours, so bushy
/// subtrees and huge origin sets get low priority. Per-keyword
/// activations combine by max (or sum, for "near queries") and the queue
/// priority is their total.
///
/// Distance bookkeeping per Figure 3: each discovered node stores, per
/// keyword, the best known distance and the child to follow (sp);
/// improvements propagate to reached ancestors through the explored-
/// parents sets P_u (Attach), and activation increases propagate through
/// explored edges (Activate). Roots complete for all keywords emit into
/// the OutputHeap; §4.5's upper bound (tight NRA-style or the loose
/// edge-score heuristic) gates release.
///
/// Execution is one sequential best-first loop: each iteration pops the
/// most activated node of Q_in/Q_out (activation, then NodeId — a
/// strict total order), explores its edges and drains the resulting
/// Attach/Activate cascades before the next pop.
class BidirectionalSearcher : public Searcher {
 public:
  using Searcher::Searcher;

  SearchStatus Resume(const std::vector<std::vector<NodeId>>& origins,
                      SearchContext* context,
                      const StepLimits& limits) const override;
};

}  // namespace banks

#endif  // BANKS_SEARCH_BIDIRECTIONAL_H_
