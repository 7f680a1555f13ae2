#include "tracing.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

int64_t Nanos(hetesim::Trace::Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

}  // namespace

double SpanStats::total_self() const {
  double total = 0;
  for (double s : self_times) total += s;
  return total;
}

std::vector<double> SelfTimes(const std::vector<hetesim::Trace::Span>& spans) {
  // Children's [start, end] intervals, in nanoseconds, per parent index.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const hetesim::Trace::Span& span : spans) {
    if (!span.finished || span.parent == hetesim::Trace::kNoParent) continue;
    const size_t parent = static_cast<size_t>(span.parent) - 1;
    if (parent < spans.size()) children[parent].emplace_back(Nanos(span.start), Nanos(span.end));
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const hetesim::Trace::Span& span = spans[i];
    if (!span.finished) continue;
    const int64_t lo = Nanos(span.start);
    const int64_t hi = Nanos(span.end);
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = static_cast<double>(hi - lo - covered) * 1e-9;
  }
  return self;
}

int SpanLog::Intern(const std::string& name) {
  auto [it, inserted] = name_ids_.emplace(name, static_cast<int>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

void SpanLog::Absorb(const hetesim::Trace& trace, int64_t op_id) {
  const std::vector<hetesim::Trace::Span> spans = trace.Spans();
  const std::vector<double> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const hetesim::Trace::Span& span = spans[i];
    if (!span.finished) continue;
    Record record;
    record.op_id = op_id;
    record.span_id = span.id;
    record.parent = span.parent;
    record.name = Intern(span.name);
    record.start_ns = Nanos(span.start);
    record.end_ns = Nanos(span.end);
    records_.push_back(record);
    SpanStats& stats = stats_[span.name];
    stats.durations.push_back(static_cast<double>(record.end_ns - record.start_ns) * 1e-9);
    stats.self_times.push_back(self[i]);
  }
}

void SpanLog::Merge(const SpanLog& other) {
  for (const Record& r : other.records_) {
    Record copy = r;
    copy.name = Intern(other.names_[static_cast<size_t>(r.name)]);
    records_.push_back(copy);
  }
  for (const auto& [name, stats] : other.stats_) {
    SpanStats& mine = stats_[name];
    mine.durations.insert(mine.durations.end(), stats.durations.begin(), stats.durations.end());
    mine.self_times.insert(mine.self_times.end(), stats.self_times.begin(),
                           stats.self_times.end());
  }
}

const SpanStats& SpanLog::Stats(const std::string& name) const {
  static const SpanStats kEmpty;
  auto it = stats_.find(name);
  return it == stats_.end() ? kEmpty : it->second;
}

bool SpanLog::Write(const std::string& path, const std::string& workload,
                    int64_t max_ops) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  int64_t epoch = 0;
  for (const Record& r : records_) {
    if (epoch == 0 || r.start_ns < epoch) epoch = r.start_ns;
  }
  int64_t ops_written = 0;
  int64_t ops_skipped = 0;
  int64_t last_op = -1;
  bool writing = false;
  std::string body;
  for (const Record& r : records_) {
    if (r.op_id != last_op) {
      last_op = r.op_id;
      writing = ops_written < max_ops;
      (writing ? ops_written : ops_skipped) += 1;
    }
    if (!writing) continue;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"op\": %lld, \"id\": %lld, \"parent\": %lld, \"name\": \"%s\", "
                  "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                  static_cast<long long>(r.op_id), static_cast<long long>(r.span_id),
                  static_cast<long long>(r.parent), names_[static_cast<size_t>(r.name)].c_str(),
                  static_cast<double>(r.start_ns - epoch) * 1e-3,
                  static_cast<double>(r.end_ns - epoch) * 1e-3);
    body += line;
  }
  std::fprintf(out,
               "{\"workload\": \"%s\", \"ops_written\": %lld, \"ops_not_written\": %lld, "
               "\"spans\": %zu}\n",
               workload.c_str(), static_cast<long long>(ops_written),
               static_cast<long long>(ops_skipped), records_.size());
  std::fputs(body.c_str(), out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
