// Unit tests of the benchmark's statistics and span helpers. Plain C++ with
// no test framework, so the benchmark builds wherever the library does.
// Run with `python3 perfbench/run.py --unit-tests`; exits 1 on a failure.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "tracing.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                 \
    }                                                               \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestQuantiles() {
  using perfbench::Quantile;
  EXPECT(Quantile({}, 0.5) == 0);
  EXPECT(Quantile({7}, 0.99) == 7);
  const std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT(Quantile(ten, 0.5) == 5);   // rank ceil(5) = 5
  EXPECT(Quantile(ten, 0.99) == 10);
  EXPECT(Quantile(ten, 0.0) == 1);
  EXPECT(perfbench::Median({3, 1, 2}) == 2);
}

void TestSummaryFlagsThinTails() {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  perfbench::Summary s = perfbench::Summarize(samples);
  EXPECT(s.count == 1000);
  EXPECT(s.p50 == 500);
  EXPECT(s.p99 == 990);
  EXPECT(s.beyond_p99 == 10);
  EXPECT(s.tail_ok);

  std::vector<double> few = {5, 4, 3, 2, 1};
  s = perfbench::Summarize(few);
  EXPECT(s.p99 == 5);
  EXPECT(s.beyond_p99 == 0);
  EXPECT(!s.tail_ok);

  std::vector<double> just_short(999, 1.0);
  EXPECT(!perfbench::Summarize(just_short).tail_ok);
}

void TestRefusalsCountAsSloMisses() {
  perfbench::SloCounter slo;
  slo.Record(true, 0.001, 0.002);   // served within the limit
  slo.Record(true, 0.003, 0.002);   // served late
  slo.Record(false, 0.0001, 0.002); // refused fast: still a miss
  slo.Record(false, 0.0, 0.002);    // failed
  EXPECT(slo.attempted() == 4);
  EXPECT(slo.met() == 1);
  EXPECT(Near(slo.miss_frac(), 0.75));
  EXPECT(perfbench::SloCounter().miss_frac() == 0);
}

void TestOpenLoopTimesFromDue() {
  // Due at 1.0, sent late at 1.5, answered at 1.6: the 0.5 s the request
  // waited before it was sent is part of its latency.
  const perfbench::OpenLoopTiming t = perfbench::TimeFromDue(1.0, 1.5, 1.6);
  EXPECT(Near(t.latency, 0.6));
  EXPECT(Near(t.lateness, 0.5));
  EXPECT(perfbench::TimeFromDue(1.0, 0.9, 1.2).lateness == 0);
}

void TestBacklogGrowth() {
  EXPECT(!perfbench::BacklogGrowing({0, 1, 0, 1, 0, 1, 0, 1}, 4));
  EXPECT(perfbench::BacklogGrowing({0, 2, 4, 8, 16, 32, 64, 128}, 4));
  EXPECT(!perfbench::BacklogGrowing({5}, 4));
}

void TestLadderStopsAtFirstFailure() {
  using perfbench::LadderStep;
  std::vector<double> asked;
  auto step = [&](double rate) {
    asked.push_back(rate);
    LadderStep s;
    s.p99_within_limits = rate < 300;
    s.backlog_growing = false;
    return s;
  };
  std::vector<LadderStep> steps;
  EXPECT(perfbench::SloRateLadder({100, 200, 300, 400}, step, &steps) == 200);
  EXPECT(asked.size() == 3);  // 400 is never tried
  EXPECT(steps.size() == 3 && !steps.back().passed());

  auto backlog = [](double rate) {
    LadderStep s;
    s.p99_within_limits = true;
    s.backlog_growing = rate >= 200;
    return s;
  };
  EXPECT(perfbench::SloRateLadder({100, 200, 300}, backlog, nullptr) == 100);
  auto never = [](double) { return LadderStep{}; };
  EXPECT(perfbench::SloRateLadder({100, 200}, never, nullptr) == 0);
}

void TestSelfTimes() {
  using Span = hetesim::Trace::Span;
  const auto t0 = hetesim::Trace::Clock::time_point{};
  auto at = [t0](int ms) { return t0 + std::chrono::milliseconds(ms); };
  auto span = [](int64_t id, int64_t parent, auto start, auto end) {
    Span s;
    s.id = id;
    s.parent = parent;
    s.start = start;
    s.end = end;
    s.finished = true;
    return s;
  };
  // Root 0..100 with children 10..40 and 30..60 (overlapping) and a
  // grandchild 12..20 under the first child.
  const std::vector<Span> spans = {
      span(1, 0, at(0), at(100)),
      span(2, 1, at(10), at(40)),
      span(3, 1, at(30), at(60)),
      span(4, 2, at(12), at(20)),
  };
  const std::vector<double> self = perfbench::SelfTimes(spans);
  EXPECT(Near(self[0], 0.050));  // 100 - union(10..60)
  EXPECT(Near(self[1], 0.022));  // 30 - 8
  EXPECT(Near(self[2], 0.030));
  EXPECT(Near(self[3], 0.008));
}

}  // namespace

int main() {
  TestQuantiles();
  TestSummaryFlagsThinTails();
  TestRefusalsCountAsSloMisses();
  TestOpenLoopTimesFromDue();
  TestBacklogGrowth();
  TestLadderStopsAtFirstFailure();
  TestSelfTimes();
  if (g_failures > 0) {
    std::printf("%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench unit tests: all passed\n");
  return 0;
}
