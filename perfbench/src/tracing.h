// In-memory span log of the traced run. The harness opens a `hetesim::Trace`
// per timed operation, wraps each public library call it makes in a
// `hetesim::TraceSpan`, and passes the trace down through
// `QueryContext::WithTrace` wherever a call takes a context, so the
// library's own engine.*, topk.* and chain.step spans nest under the
// harness's. After the operation the trace is absorbed here: its spans are
// kept (for the trace file written at exit) and their durations and self
// times are aggregated by span name.
#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"

namespace perfbench {

/// Durations and self times (seconds) of every span with one name.
struct SpanStats {
  std::vector<double> durations;
  std::vector<double> self_times;
  double total_self() const;
};

/// One shard per worker thread; merge shards with `Merge` after the
/// workers have joined.
class SpanLog {
 public:
  /// Absorbs every finished span of `trace`, tagged with operation `op_id`.
  void Absorb(const hetesim::Trace& trace, int64_t op_id);
  void Merge(const SpanLog& other);

  /// Aggregates of spans named `name` (empty when none were recorded).
  const SpanStats& Stats(const std::string& name) const;
  size_t num_spans() const { return records_.size(); }

  /// Writes the spans as JSON lines, one span per line, with times in
  /// microseconds from the first span. At most `max_ops` operations are
  /// written; the header line says how many were left out.
  bool Write(const std::string& path, const std::string& workload, int64_t max_ops) const;

 private:
  struct Record {
    int64_t op_id = 0;
    int64_t span_id = 0;
    int64_t parent = 0;
    int name = 0;
    int64_t start_ns = 0;  ///< steady_clock nanoseconds
    int64_t end_ns = 0;
  };
  int Intern(const std::string& name);

  std::vector<std::string> names_;
  std::map<std::string, int> name_ids_;
  std::map<std::string, SpanStats> stats_;
  std::vector<Record> records_;
};

/// Self time of each span in `spans`: its duration minus the part of that
/// interval covered by the union of its children's intervals.
std::vector<double> SelfTimes(const std::vector<hetesim::Trace::Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
