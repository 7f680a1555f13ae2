// The four benchmark workloads and the pieces the three query workloads
// share: the query-class table, per-class latency limits and the closed
// loop that drives in-process calls.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/trace.h"
#include "core/hetesim.h"
#include "core/topk.h"
#include "hin/metapath.h"
#include "tracing.h"
#include "workload/schedule.h"

namespace perfbench {

void RunInteractive(const Options& options, Report& report);
void RunAdhocChurn(const Options& options, Report& report);
void RunSocketOpenLoop(const Options& options, Report& report);
void RunOfflineBatch(const Options& options, Report& report);

/// The three query shapes of the paper, in metric-name order.
enum QueryShape { kTopK = 0, kPair = 1, kSingle = 2 };
inline constexpr std::array<const char*, 3> kShapeNames = {"topk", "pair", "single"};

/// Latency limit of each shape on one workload, in seconds. Fixed once from
/// measurements of the seed commit (see README.md); never derived per run.
using Limits = std::array<double, 3>;

struct QueryClass {
  QueryShape shape = kPair;
  std::string path;  ///< MetaPath::Parse syntax
  double weight = 1;
  int k = 10;        ///< top-k only
};

/// Query classes resolved against one graph: the parsed path of each class
/// and, for top-k classes, the prepared searcher (shared between classes
/// on the same path).
struct PreparedClasses {
  std::vector<QueryClass> classes;
  std::vector<hetesim::MetaPath> paths;
  std::vector<std::shared_ptr<const hetesim::TopKSearcher>> searchers;
  std::vector<hetesim::workload::ClassDomain> Domains(const hetesim::HinGraph& graph) const;
};

/// Parses every class's path and prepares one searcher per distinct top-k
/// path through `cache` (which may be null). Returns the preparation time
/// in `prepare_seconds`.
PreparedClasses PrepareClasses(const hetesim::HinGraph& graph, std::vector<QueryClass> classes,
                               const hetesim::HeteSimOptions& options,
                               hetesim::PathMatrixCache* cache, double* prepare_seconds);

/// Builds the seeded query stream over `classes` with the library's
/// schedule generator, over each class's source/target `domains`. Sources
/// (and pair targets) are uniform, dealt per class from shuffled decks so
/// each object comes up once before any comes up twice; or, when `zipf`,
/// sources are Zipf (s = 1.05) over a fixed popularity order. Open loop
/// (Poisson arrivals) when `rate_qps` > 0.
hetesim::workload::Schedule MakeSchedule(const std::vector<QueryClass>& classes,
                                         const std::vector<hetesim::workload::ClassDomain>& domains,
                                         uint64_t seed, int64_t num_queries, bool zipf,
                                         double rate_qps = 0);

/// Executes one query. `trace` is null in untraced passes; otherwise the
/// executor wraps each library call in a `TraceSpan` on it and hands it to
/// the calls that take a `QueryContext`. Returns false when the query
/// failed.
using QueryExecutor =
    std::function<bool(const hetesim::workload::QuerySpec& spec, hetesim::Trace* trace)>;

/// Runs one query through `engine` (pair, single-source) or `searcher`
/// (top-k), inside a span named after the layer call when traced.
bool ExecuteQuery(QueryShape shape, const hetesim::MetaPath& path,
                  const hetesim::workload::QuerySpec& spec, const hetesim::HeteSimEngine& engine,
                  const hetesim::TopKSearcher* searcher, hetesim::Trace* trace);

/// Checks the first `per_class` queries of each class against the oracle
/// (outside any timed window) and records the verdict.
void CheckAnswers(const hetesim::workload::Schedule& schedule, const PreparedClasses& prepared,
                  const hetesim::HeteSimEngine& engine, int per_class,
                  const std::string& workload, Report& report);

/// Untimed full-load run before each workload's timed window.
inline constexpr double kWarmupSeconds = 1.0;

/// Result of one closed-loop pass.
struct ClosedLoopResult {
  /// Latency in seconds of every attempted query, failed ones included,
  /// per shape.
  std::array<std::vector<double>, 3> latency;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t met = 0;  ///< served within their class limit
  double seconds = 0;  ///< wall time from the first query sent to the last answer
  SpanLog spans;  ///< traced passes only
};

/// `workers` threads, each issuing the next query of `schedule` (cycling
/// through it) as soon as its previous one returns, for `seconds`.
ClosedLoopResult RunClosedLoop(const hetesim::workload::Schedule& schedule,
                               const std::vector<QueryClass>& classes, const Limits& limits,
                               int workers, double seconds, bool traced,
                               const QueryExecutor& execute);

/// Sets the end-to-end metrics of a closed-loop pass: per-shape p50/p99
/// over the whole window, throughput and goodput. Sorts `result`'s
/// latencies in place.
void ReportClosedLoop(ClosedLoopResult& result, Report& report);

/// Mean latency over every shape of a pass, for the trace overhead.
double MeanLatency(const ClosedLoopResult& result);

/// The passes of a closed-loop workload, after an untimed warm-up.
/// Untraced runs make one pass over the whole window. Traced runs split
/// it: an untraced pass whose counter deltas (warm-up included) give the
/// work counts, then a traced pass for the span timings and the tracing
/// overhead.
struct QueryPasses {
  ClosedLoopResult untraced;
  ClosedLoopResult traced;
  CounterSnapshot before;  ///< registry before the warm-up
  CounterSnapshot after;   ///< ...and after the untraced pass
};
QueryPasses RunQueryPasses(const Options& options, const hetesim::workload::Schedule& schedule,
                           const std::vector<QueryClass>& classes, const Limits& limits,
                           const QueryExecutor& execute, Report& report);

/// Sets the `matrix.*` registry deltas between two snapshots: SpGEMM rows,
/// planned and actual nnz.
void ReportMatrixDeltas(const CounterSnapshot& before, const CounterSnapshot& after,
                        Report& report);

/// Digest of the query stream, stamped so a changed generator shows as a
/// changed input rather than as a speed change.
void StampInputs(Report& report, uint64_t graph_digest, uint64_t schedule_digest);

/// Sets every per-layer metric to 0 with 0 samples, so each workload prints
/// the full per-layer table; the workload overwrites what it measures.
void DeclarePerLayerMetrics(Report& report);

/// Per-layer timing helpers over span aggregates.
void SetSpanTiming(Report& report, const SpanLog& spans, const std::string& span,
                   const std::string& metric, double scale, const std::string& unit);

/// Writes a traced pass's spans to `<out_dir>/trace_<workload>_<part>.jsonl`.
void WriteTrace(const SpanLog& spans, const std::string& part, const Options& options,
                Report& report);

/// (traced - untraced) / untraced of the mean per-operation latency.
double TraceOverhead(double untraced_mean, double traced_mean);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
