// Statistics helpers of the benchmark harness: latency summaries, SLO
// accounting, open-loop lateness and the SLO rate ladder. Dependency-free
// (no HeteSim headers) so tests/stats_test.cc can check them on their own.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `sorted` (ascending), `q` in [0, 1]: the value
/// at rank ceil(q * n). 0 for an empty input.
double Quantile(const std::vector<double>& sorted, double q);

/// Median of `values` (any order), by nearest rank. 0 for an empty input.
double Median(std::vector<double> values);

/// Summary of one timing: median, p99 and the sample count behind them.
struct Summary {
  int64_t count = 0;
  double p50 = 0;
  double p99 = 0;
  /// Samples strictly above the p99 rank. A p99 with fewer than 10 of them
  /// rests on a handful of queries and is flagged (`tail_ok` false).
  int64_t beyond_p99 = 0;
  bool tail_ok = false;
};

/// Summarizes `samples` (any order; the vector is sorted in place).
Summary Summarize(std::vector<double>& samples);

/// Counts queries against a latency limit. A query that failed or was
/// refused misses the limit whatever its latency.
class SloCounter {
 public:
  void Record(bool served, double latency, double limit);
  int64_t attempted() const { return attempted_; }
  int64_t met() const { return met_; }
  int64_t missed() const { return attempted_ - met_; }
  /// Share of attempted queries that missed; 0 when nothing was attempted.
  double miss_frac() const;

 private:
  int64_t attempted_ = 0;
  int64_t met_ = 0;
};

/// Timing of one open-loop request. Latency runs from the moment the
/// request was due, not from when it was sent, so a stalled generator or
/// a queue in front of the connections is charged to the requests behind
/// it; lateness is how far behind schedule the send was.
struct OpenLoopTiming {
  double latency = 0;
  double lateness = 0;
};
OpenLoopTiming TimeFromDue(double due, double sent, double done);

/// True when the backlog of due-but-unsent requests grew over a ladder
/// step: the mean of the second half of the samples exceeds the first
/// half's mean by more than half again plus `slack` requests.
bool BacklogGrowing(const std::vector<double>& backlog_samples, double slack);

/// Outcome of one ladder step at a fixed offered rate.
struct LadderStep {
  double rate = 0;
  bool p99_within_limits = false;
  bool backlog_growing = false;
  bool passed() const { return p99_within_limits && !backlog_growing; }
};

/// Runs `run_step` at each rate of `rates` (ascending) and stops at the
/// first step whose p99 misses a limit or whose backlog grows. Returns the
/// highest passing rate (0 if the first step fails); `steps` receives
/// every step that ran.
double SloRateLadder(const std::vector<double>& rates,
                     const std::function<LadderStep(double)>& run_step,
                     std::vector<LadderStep>* steps);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
