#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/metrics.h"
#include "hin/digest.h"
#include "store/store.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace fs = std::filesystem;

void Report::Set(const std::string& name, double value, const std::string& unit,
                 int64_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::SetTiming(const std::string& p50_name, const std::string& p99_name,
                       const Summary& s, double scale, const std::string& unit) {
  Set(p50_name, s.p50 * scale, unit, s.count);
  Set(p99_name, s.p99 * scale, unit, s.count);
  if (!s.tail_ok) {
    Warn(p99_name + ": fewer than 10 samples beyond the p99 (n=" + std::to_string(s.count) + ")");
  }
}

double Report::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Report::Stamp(const std::string& key, const std::string& value) {
  stamp_.emplace_back(key, value);
}

void Report::Note(const std::string& line) { lines_.push_back("note: " + line); }
void Report::Warn(const std::string& line) { lines_.push_back("warning: " + line); }

void Report::Check(bool ok, const std::string& what) {
  lines_.push_back(std::string(ok ? "check ok: " : "CHECK FAILED: ") + what);
  if (!ok) correct_ = false;
}

namespace {

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Report::Print() const {
  for (const auto& [key, value] : stamp_) std::printf("stamp %s: %s\n", key.c_str(), value.c_str());
  for (const std::string& line : lines_) std::printf("%s\n", line.c_str());
  for (const auto& [name, m] : metrics_) {
    std::printf("metric %-32s %14.6f %-6s n=%lld\n", name.c_str(), m.value, m.unit.c_str(),
                static_cast<long long>(m.samples));
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) json += ", ";
    first = false;
    json += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + ", \"samples\": " +
            std::to_string(m.samples) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

namespace {

std::string ReadFirstLine(const fs::path& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string GitSha() {
  const fs::path git = ".git";
  std::string head = ReadFirstLine(git / "HEAD");
  if (head.empty()) return "unknown (not a git checkout)";
  if (head.rfind("ref: ", 0) != 0) return head;
  const std::string ref = head.substr(5);
  std::string sha = ReadFirstLine(git / ref);
  if (!sha.empty()) return sha;
  std::ifstream packed(git / "packed-refs");
  for (std::string line; std::getline(packed, line);) {
    if (line.size() > 41 && line.compare(41, std::string::npos, ref) == 0) {
      return line.substr(0, 40);
    }
  }
  return "unknown";
}

}  // namespace

int NumCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

void StampMachine(Report& report) {
  report.Stamp("nproc", std::to_string(NumCpus()));
  report.Stamp("build_type", PERFBENCH_BUILD_TYPE);
  report.Stamp("compiler", std::string("g++/clang ") + __VERSION__);
  report.Stamp("git_sha", GitSha());
}

CounterSnapshot CounterSnapshot::Take() {
  CounterSnapshot snap;
  const hetesim::MetricsRegistry::Snapshot s = hetesim::MetricsRegistry::Global().Collect();
  for (const auto& [name, value] : s.counters) snap.values_[name] = static_cast<double>(value);
  for (const auto& [name, value] : s.gauges) snap.values_[name] = static_cast<double>(value);
  return snap;
}

double CounterSnapshot::Delta(const CounterSnapshot& later, const std::string& name) const {
  auto find = [&name](const std::map<std::string, double>& m) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  return find(later.values_) - find(values_);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

TempDir::TempDir(const std::string& parent, const std::string& stem) {
  fs::create_directories(parent);
  std::string pattern = (fs::path(parent) / (stem + "_XXXXXX")).string();
  std::vector<char> buf(pattern.begin(), pattern.end());
  buf.push_back('\0');
  if (mkdtemp(buf.data()) == nullptr) Fatal("cannot create a temporary directory in " + parent);
  path_ = buf.data();
}

TempDir::~TempDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

uint64_t TempDir::Bytes() const {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(path_, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::unique_ptr<hetesim::DblpDataset> MakeDblp(const hetesim::DblpConfig& config) {
  hetesim::Result<hetesim::DblpDataset> data = hetesim::GenerateDblp(config);
  if (!data.ok()) Fatal("GenerateDblp: " + std::string(data.status().message()));
  return std::make_unique<hetesim::DblpDataset>(std::move(*data));
}

std::shared_ptr<hetesim::MatrixStore> OpenStore(const std::string& dir,
                                                const hetesim::HinGraph& graph) {
  hetesim::StoreOptions options;
  options.directory = dir;
  options.graph_digest = hetesim::GraphDigest(graph);
  hetesim::Result<std::unique_ptr<hetesim::MatrixStore>> store =
      hetesim::MatrixStore::Open(options);
  if (!store.ok()) Fatal("MatrixStore::Open: " + store.status().message());
  return std::move(*store);
}

void MeasureSetup(Report& report, const std::function<void()>& teardown,
                  const std::function<void()>& setup) {
  std::vector<double> times;
  double total = 0;
  while (times.size() < 50) {
    teardown();
    const Clock::time_point start = Clock::now();
    setup();
    times.push_back(SecondsSince(start));
    total += times.back();
    if (times.size() >= 9 && total >= 1.0) break;
    if (times.size() >= 3 && total >= 6.0) break;
  }
  report.Set("setup_s", Median(times), "s", static_cast<int64_t>(times.size()));
  report.Set("setup_first_s", times.front(), "s");
  std::string each = "setup repetitions (s):";
  for (double t : times) each += " " + std::to_string(t);
  report.Note(each);
}

std::string Hex(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

void Fatal(const std::string& message) {
  std::fprintf(stderr, "fatal: %s\n", message.c_str());
  std::exit(1);
}

}  // namespace perfbench
