#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// Zero-based index of the nearest-rank quantile q of n samples.
size_t RankIndex(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const size_t r = rank < 1 ? 1 : static_cast<size_t>(rank);
  return std::min(r, n) - 1;
}

}  // namespace

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[RankIndex(sorted.size(), q)];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Quantile(values, 0.5);
}

Summary Summarize(std::vector<double>& samples) {
  Summary s;
  s.count = static_cast<int64_t>(samples.size());
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = Quantile(samples, 0.5);
  s.p99 = Quantile(samples, 0.99);
  s.beyond_p99 = s.count - 1 - static_cast<int64_t>(RankIndex(samples.size(), 0.99));
  s.tail_ok = s.beyond_p99 >= 10;
  return s;
}

void SloCounter::Record(bool served, double latency, double limit) {
  ++attempted_;
  if (served && latency <= limit) ++met_;
}

double SloCounter::miss_frac() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(missed()) / static_cast<double>(attempted_);
}

OpenLoopTiming TimeFromDue(double due, double sent, double done) {
  OpenLoopTiming t;
  t.latency = done - due;
  t.lateness = std::max(0.0, sent - due);
  return t;
}

bool BacklogGrowing(const std::vector<double>& backlog_samples, double slack) {
  const size_t n = backlog_samples.size();
  if (n < 2) return false;
  double first = 0, second = 0;
  for (size_t i = 0; i < n / 2; ++i) first += backlog_samples[i];
  for (size_t i = n / 2; i < n; ++i) second += backlog_samples[i];
  first /= static_cast<double>(n / 2);
  second /= static_cast<double>(n - n / 2);
  return second > 1.5 * first + slack;
}

double SloRateLadder(const std::vector<double>& rates,
                     const std::function<LadderStep(double)>& run_step,
                     std::vector<LadderStep>* steps) {
  double best = 0;
  for (double rate : rates) {
    LadderStep step = run_step(rate);
    step.rate = rate;
    if (steps != nullptr) steps->push_back(step);
    if (!step.passed()) break;
    best = rate;
  }
  return best;
}

}  // namespace perfbench
