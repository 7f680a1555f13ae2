// Answer checks, run outside the timed windows. Every checked answer is
// compared with an oracle computed by a different code path: the
// cache-less exhaustive engine's single-source row (the source's row of
// the full relevance matrix, propagated exactly) and
// `TopKSearcher::QueryExhaustive`. A mismatch fails the run; it is never
// counted as a failed operation.
#ifndef PERFBENCH_ANSWERS_H_
#define PERFBENCH_ANSWERS_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/hetesim.h"
#include "core/topk.h"
#include "workload/schedule.h"

namespace perfbench {

/// Absolute tolerance of every exact answer path.
inline constexpr double kAnswerTolerance = 1e-12;

/// The first `per_class` specs of each of `num_classes` classes.
std::vector<hetesim::workload::QuerySpec> SampleSpecs(const hetesim::workload::Schedule& schedule,
                                                      int num_classes, int per_class);

class AnswerChecker {
 public:
  /// `oracle` must be cache-less and outlive the checker.
  explicit AnswerChecker(const hetesim::HeteSimEngine& oracle) : oracle_(oracle) {}

  void CheckTopK(const hetesim::MetaPath& path, const hetesim::workload::QuerySpec& spec,
                 const hetesim::TopKSearcher& searcher);
  void CheckPair(const hetesim::MetaPath& path, const hetesim::workload::QuerySpec& spec,
                 const hetesim::HeteSimEngine& engine);
  void CheckSingle(const hetesim::MetaPath& path, const hetesim::workload::QuerySpec& spec,
                   const hetesim::HeteSimEngine& engine);

  /// Compares answers that came back from elsewhere (e.g. over a socket).
  void CompareTopK(const std::string& what, const std::vector<hetesim::Scored>& got,
                   const std::vector<hetesim::Scored>& want, double tolerance);
  void CompareScores(const std::string& what, const std::vector<double>& got,
                     const std::vector<double>& want);
  /// Records a check that has no numeric comparison.
  void Expect(bool ok, const std::string& what);

  /// Adds one summary check line (with the first failure, if any).
  void Finish(const std::string& workload, Report& report) const;

 private:
  /// The oracle's row of `source` along `path` (memoized).
  const std::vector<double>& OracleRow(const hetesim::MetaPath& path, hetesim::Index source);
  void Fail(const std::string& what);

  const hetesim::HeteSimEngine& oracle_;
  std::map<std::pair<std::string, hetesim::Index>, std::vector<double>> rows_;
  int checked_ = 0;
  int failed_ = 0;
  std::string first_failure_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ANSWERS_H_
