#include "answers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace wl = hetesim::workload;

std::vector<wl::QuerySpec> SampleSpecs(const wl::Schedule& schedule, int num_classes,
                                       int per_class) {
  std::vector<int> taken(static_cast<size_t>(num_classes), 0);
  std::vector<wl::QuerySpec> sample;
  for (const wl::QuerySpec& spec : schedule.specs) {
    int& n = taken[static_cast<size_t>(spec.class_id)];
    if (n < per_class) {
      ++n;
      sample.push_back(spec);
    }
  }
  return sample;
}

const std::vector<double>& AnswerChecker::OracleRow(const hetesim::MetaPath& path,
                                                    hetesim::Index source) {
  auto key = std::make_pair(path.ToString(), source);
  auto it = rows_.find(key);
  if (it != rows_.end()) return it->second;
  hetesim::Result<std::vector<double>> row = oracle_.ComputeSingleSource(path, source);
  if (!row.ok()) Fatal("oracle ComputeSingleSource: " + row.status().message());
  return rows_.emplace(key, std::move(*row)).first->second;
}

void AnswerChecker::Fail(const std::string& what) {
  ++failed_;
  if (first_failure_.empty()) first_failure_ = what;
}

void AnswerChecker::Expect(bool ok, const std::string& what) {
  ++checked_;
  if (!ok) Fail(what);
}

void AnswerChecker::CompareScores(const std::string& what, const std::vector<double>& got,
                                  const std::vector<double>& want) {
  ++checked_;
  if (got.size() != want.size()) {
    Fail(what + ": " + std::to_string(got.size()) + " scores, expected " +
         std::to_string(want.size()));
    return;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - want[i]) <= kAnswerTolerance)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), ": score[%zu] = %.17g, expected %.17g", i, got[i], want[i]);
      Fail(what + buf);
      return;
    }
  }
}

void AnswerChecker::CompareTopK(const std::string& what, const std::vector<hetesim::Scored>& got,
                                const std::vector<hetesim::Scored>& want, double tolerance) {
  ++checked_;
  // Zero scores carry no ranking; the pruned and frontier paths omit
  // candidates that cannot score, the exhaustive one lists them.
  auto positive = [tolerance](const std::vector<hetesim::Scored>& items) {
    std::vector<hetesim::Scored> out;
    for (const hetesim::Scored& s : items) {
      if (s.score > tolerance) out.push_back(s);
    }
    return out;
  };
  const std::vector<hetesim::Scored> g = positive(got);
  const std::vector<hetesim::Scored> w = positive(want);
  if (g.size() != w.size()) {
    Fail(what + ": " + std::to_string(g.size()) + " ranked items, expected " +
         std::to_string(w.size()));
    return;
  }
  for (size_t i = 0; i < g.size(); ++i) {
    if (!(std::fabs(g[i].score - w[i].score) <= tolerance)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), ": rank %zu score %.17g, expected %.17g", i, g[i].score,
                    w[i].score);
      Fail(what + buf);
      return;
    }
  }
}

void AnswerChecker::CheckTopK(const hetesim::MetaPath& path, const wl::QuerySpec& spec,
                              const hetesim::TopKSearcher& searcher) {
  const std::string what = "top-k " + path.ToString() + " source " + std::to_string(spec.source);
  hetesim::Result<hetesim::TopKResult> got = searcher.Query(spec.source, spec.k);
  hetesim::Result<hetesim::TopKResult> want = searcher.QueryExhaustive(spec.source, spec.k);
  if (!got.ok() || !want.ok()) {
    Expect(false, what + ": query failed");
    return;
  }
  const double tolerance = std::max(kAnswerTolerance, got->error_bound);
  CompareTopK(what + " vs QueryExhaustive", got->items, want->items, tolerance);
  // Each reported score must also be the oracle's score of that target.
  const std::vector<double>& row = OracleRow(path, spec.source);
  bool ok = true;
  for (const hetesim::Scored& s : got->items) {
    if (s.id < 0 || static_cast<size_t>(s.id) >= row.size() ||
        !(std::fabs(row[static_cast<size_t>(s.id)] - s.score) <= tolerance)) {
      ok = false;
    }
  }
  Expect(ok, what + ": a ranked score differs from the oracle row");
}

void AnswerChecker::CheckPair(const hetesim::MetaPath& path, const wl::QuerySpec& spec,
                              const hetesim::HeteSimEngine& engine) {
  const std::string what = "pair " + path.ToString() + " (" + std::to_string(spec.source) + ", " +
                           std::to_string(spec.target) + ")";
  hetesim::Result<std::vector<double>> got = engine.ComputePairs(path, {{spec.source, spec.target}});
  if (!got.ok()) {
    Expect(false, what + ": query failed");
    return;
  }
  const std::vector<double>& row = OracleRow(path, spec.source);
  CompareScores(what, *got, {row[static_cast<size_t>(spec.target)]});
}

void AnswerChecker::CheckSingle(const hetesim::MetaPath& path, const wl::QuerySpec& spec,
                                const hetesim::HeteSimEngine& engine) {
  const std::string what = "single-source " + path.ToString() + " source " +
                           std::to_string(spec.source);
  hetesim::Result<std::vector<double>> got = engine.ComputeSingleSource(path, spec.source);
  if (!got.ok()) {
    Expect(false, what + ": query failed");
    return;
  }
  CompareScores(what, *got, OracleRow(path, spec.source));
}

void AnswerChecker::Finish(const std::string& workload, Report& report) const {
  std::string line = workload + ": " + std::to_string(checked_ - failed_) + "/" +
                     std::to_string(checked_) + " answers match the oracle";
  if (failed_ > 0) line += "; first mismatch: " + first_failure_;
  report.Check(failed_ == 0 && checked_ > 0, line);
}

}  // namespace perfbench
