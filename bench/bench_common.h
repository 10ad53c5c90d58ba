#ifndef BANKS_BENCH_BENCH_COMMON_H_
#define BANKS_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "datasets/dblp_gen.h"
#include "datasets/imdb_gen.h"
#include "datasets/patents_gen.h"
#include "datasets/workload.h"
#include "prestige/pagerank.h"
#include "relational/graph_builder.h"
#include "relational/sparse.h"
#include "search/searcher.h"

namespace banks::bench {

/// One benchmark dataset: relational source, extracted data graph,
/// precomputed prestige. Sizes are laptop-scale stand-ins for the
/// paper's DBLP (2M nodes), IMDB and US-Patents (4M nodes) datasets;
/// the skew knobs reproduce the pathologies (frequent terms, hubs).
struct BenchEnv {
  std::string name;
  Database db;
  DataGraph dg;
  std::vector<double> prestige;

  /// Origin-size category thresholds scaled to this dataset (set by the
  /// factory from the paper's 2M-node thresholds by node-count ratio).
  FreqThresholds thresholds;
};

/// Scale factor 1.0 ≈ 60k-node DBLP graph. Benches default to 1.0;
/// pass --scale to stress bigger graphs.
BenchEnv MakeDblpEnv(double scale = 1.0);
BenchEnv MakeImdbEnv(double scale = 1.0);
BenchEnv MakePatentsEnv(double scale = 1.0);

/// Measurement of one (query, algorithm) run following §5.2: metrics
/// are taken at the last relevant result (or the 10th if more).
struct RunStats {
  size_t relevant_total = 0;
  size_t relevant_found = 0;     // among the top-k outputs
  bool complete = false;         // found the capped relevant set
  double out_time = 0;           // seconds to OUTPUT the last relevant
  double gen_time = 0;           // seconds to GENERATE the last relevant
  uint64_t explored = 0;         // nodes explored at that generation
  uint64_t touched = 0;          // nodes touched at that generation
  size_t outputs_at_last_relevant = 0;  // for precision@full recall
  SearchMetrics metrics;         // whole-search counters
};

/// The measured relevant subset (§5.2 methodology): the paper examined
/// the *top 20–30 outputs* for relevant answers and measured at the last
/// (or 10th). Our CN ground truth is score-blind, so we rank it by the
/// ranking model: an exhaustive-ish reference run scores the relevant
/// trees and the best ≤cap become the measured targets. Falls back to
/// the raw relevant set if the reference surfaces none.
/// Only relevant answers surfacing within the reference's first
/// `within_top` outputs qualify (the paper's "top 20 to 30 results ...
/// were examined"); an empty return means the query has no measurable
/// targets and should be skipped.
std::vector<std::vector<NodeId>> MeasuredRelevantSubset(
    const BenchEnv& env, const WorkloadQuery& query, size_t cap = 10,
    size_t within_top = 60);

/// Runs one algorithm over a workload query and measures against the
/// given relevant subset (pass MeasuredRelevantSubset output so all
/// algorithms chase identical targets); nullptr uses the query's full
/// ground-truth set.
RunStats RunWorkloadQuery(const BenchEnv& env, const WorkloadQuery& query,
                          Algorithm algorithm, const SearchOptions& options,
                          const std::vector<std::vector<NodeId>>* measured =
                              nullptr);

/// Runs an algorithm on raw keywords; "relevant" is taken to be the
/// top-min(10,k) answers of the reference algorithm (used by the
/// Figure-5 sample queries where the paper judged relevance manually).
RunStats RunSampleQuery(const BenchEnv& env,
                        const std::vector<std::string>& keywords,
                        Algorithm algorithm, const SearchOptions& options,
                        const std::vector<std::vector<NodeId>>& relevant);

/// Top-k answer node sets of one algorithm (reference relevance for the
/// sample queries).
std::vector<std::vector<NodeId>> ReferenceAnswers(
    const BenchEnv& env, const std::vector<std::string>& keywords,
    size_t k, const SearchOptions& options);

/// Sparse lower bound for a query (§5.2): evaluates all CNs up to
/// max_cn_size on warm indexes; returns (seconds, #CN evaluated).
std::pair<double, size_t> SparseLowerBound(
    BenchEnv* env, const std::vector<std::string>& keywords,
    size_t max_cn_size);

/// Ratio helper: a/b guarding zero denominators.
double SafeRatio(double a, double b);

/// Minimal JSON emitter for bench `--json` output (the CI bench-smoke
/// job uploads these as BENCH_*.json artifacts). No dependency, no
/// escaping beyond what bench strings need (quotes/backslashes).
///
///   JsonWriter w;
///   w.BeginObject();
///   w.Field("bench", "micro_context"); w.Field("qps", 123.4);
///   w.Key("rows"); w.BeginArray();
///   ... w.BeginObject(); w.Field(...); w.EndObject(); ...
///   w.EndArray(); w.EndObject();
///   std::cout << w.str();
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  /// Emits the key of a nested object/array field; follow with Begin*.
  void Key(const std::string& key);
  void Field(const std::string& key, const std::string& value);
  void Field(const std::string& key, const char* value);
  void Field(const std::string& key, double value);
  void Field(const std::string& key, uint64_t value);
  void Field(const std::string& key, int value);
  void Field(const std::string& key, bool value);
  const std::string& str() const { return out_; }

 private:
  void Separate();
  void Escaped(const std::string& s);

  std::string out_;
  bool needs_comma_ = false;
};

}  // namespace banks::bench

#endif  // BANKS_BENCH_BENCH_COMMON_H_
