#ifndef BANKS_SEARCH_OPTIONS_H_
#define BANKS_SEARCH_OPTIONS_H_

#include <cstddef>
#include <cstdint>

namespace banks {

/// How per-keyword activation received over multiple edges is combined
/// (§4.3): kMax reflects shortest-path tree scoring (paper default);
/// kSum rewards confluence of many paths and powers the "near queries"
/// extension mentioned in footnote 6.
enum class ActivationCombine : uint8_t { kMax, kSum };

/// Answer-release policy of §4.5.
///  kTight — NRA-style upper bound from per-keyword frontier minima plus
///           the best completion of partially-seen nodes; answers are
///           released only when no better answer can appear.
///  kLoose — the paper's cheaper heuristic: release once the answer's
///           aggregate edge score beats h(m_1..m_k), ignoring prestige.
///  kImmediate — release in generation order (no buffering); useful for
///           measuring pure generation behaviour.
enum class BoundMode : uint8_t { kTight, kLoose, kImmediate };

/// Which edges a search may traverse. The paper notes prioritization "can
/// be extended to enforce constraints using edge types to restrict search
/// to specified search paths"; restricting by provenance is the built-in
/// constraint.
enum class EdgeFilter : uint8_t { kAll, kForwardOnly, kBackwardOnly };

/// Knobs shared by all three search algorithms. Defaults follow §5.1:
/// "we used the default values noted earlier in the paper for all
/// parameters (such as mu, lambda and dmax)".
struct SearchOptions {
  /// Number of answers to produce (top-k).
  size_t k = 10;

  /// Depth cutoff d_max: nodes farther than this many edges from their
  /// nearest keyword node (or root for forward expansion) are not
  /// expanded. "A generous default of dmax = 8" (§4.2).
  uint32_t dmax = 8;

  /// Importance of node prestige in the overall score E·N^λ (§2.3).
  double lambda = 0.2;

  /// Activation attenuation: each node spreads fraction mu of received
  /// activation to neighbours and retains 1-mu (§4.3).
  double mu = 0.5;

  ActivationCombine combine = ActivationCombine::kMax;
  BoundMode bound = BoundMode::kTight;
  EdgeFilter edge_filter = EdgeFilter::kAll;

  /// Safety budget: stop after exploring this many nodes (0 = unlimited).
  uint64_t max_nodes_explored = 0;

  /// Cap on answers generated into the output buffer before forced
  /// termination (0 = unlimited). Guards pathological workloads.
  uint64_t max_answers_generated = 0;

  /// Recompute the release upper bound every this many node expansions.
  uint32_t bound_check_interval = 64;

  /// Loose-mode staleness release (engineering addition beyond §4.5,
  /// ablatable): if this many node expansions pass with no new answer
  /// generated and nothing released, the best pending answer is released
  /// anyway. Prevents frontier-minimum starvation (unexpanded dist-0
  /// origin nodes of a frequent keyword keep m_i at 0 forever) from
  /// degenerating into full-graph exploration. The §5.7 recall/precision
  /// harness validates that ordering quality survives. 0 disables.
  uint64_t release_patience = 512;
};

}  // namespace banks

#endif  // BANKS_SEARCH_OPTIONS_H_
