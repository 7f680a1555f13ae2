// Shared pieces of the benchmark harness: options, the metric report, the
// machine stamp, registry deltas, process resource readings, temporary
// directories and graph generation.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datagen/dblp_generator.h"
#include "stats.h"

namespace hetesim {
class MatrixStore;
}  // namespace hetesim

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t) { return SecondsBetween(t, Clock::now()); }

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (relative to the working directory) for trace files and the
  /// workloads' temporary stores.
  std::string out_dir = ".bench_out";
};

/// Collects everything one run reports: metrics by name with unit and
/// sample count, stamp lines, answer-check verdicts and attempt counts.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples = 1);
  /// Sets the two metrics from `s` (seconds times `scale`, in `unit`),
  /// with its sample count. Warns when the p99 is thin (`!s.tail_ok`).
  void SetTiming(const std::string& p50_name, const std::string& p99_name,
                 const Summary& s, double scale, const std::string& unit);
  double Get(const std::string& name) const;

  void Stamp(const std::string& key, const std::string& value);
  void Note(const std::string& line);   ///< printed as "note: ..."
  void Warn(const std::string& line);   ///< printed as "warning: ..."
  /// Records an answer check; a failed check makes the run exit non-zero.
  void Check(bool ok, const std::string& what);

  void AddAttempts(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return correct_; }

  /// Prints the human-readable lines, then the result JSON as the last line.
  void Print() const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
    int64_t samples = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> stamp_;
  std::vector<std::string> lines_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// nproc, build type, compiler and git sha (from the checkout, if any).
void StampMachine(Report& report);

/// Snapshot of every counter and gauge in `MetricsRegistry::Global()`.
class CounterSnapshot {
 public:
  static CounterSnapshot Take();
  /// `later - this` for `name` (0 when absent).
  double Delta(const CounterSnapshot& later, const std::string& name) const;

 private:
  std::map<std::string, double> values_;
};

/// Peak resident set size of this process, in MB.
double PeakRssMb();
/// User + system CPU seconds of this process so far.
double ProcessCpuSeconds();
int NumCpus();

/// A fresh directory under `parent`, removed (recursively) on destruction.
class TempDir {
 public:
  TempDir(const std::string& parent, const std::string& stem);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }
  /// Bytes of the regular files directly inside the directory.
  uint64_t Bytes() const;

 private:
  std::string path_;
};

/// Generator seed of every workload's graph. The graphs are fixed inputs,
/// like the paper's DBLP snapshot; `--seed` varies the query streams.
inline constexpr uint64_t kGraphSeed = 11;

/// Generates a DBLP-style graph (deterministic in `config.seed`). Aborts
/// the run (exit 1) on a generator error.
std::unique_ptr<hetesim::DblpDataset> MakeDblp(const hetesim::DblpConfig& config);

/// Opens the HPS1 store in `dir` for `graph` (keyed by its GraphDigest).
/// Aborts the run (exit 1) when it cannot be opened.
std::shared_ptr<hetesim::MatrixStore> OpenStore(const std::string& dir,
                                                const hetesim::HinGraph& graph);

/// Runs `setup` repeatedly, timing each repetition, and records their
/// median as `setup_s`: at least 3 repetitions, then more until there are
/// 9 totalling at least a second (up to 50), or until they total 6 s,
/// whichever comes first. A set-up of 2 s or more so costs the run three
/// times its own length. The first repetition is also reported as
/// `setup_first_s`. Each repetition builds everything from scratch; the
/// last one's state is the one the workload then measures. `teardown`
/// frees the previous repetition's state before each one, untimed: a
/// set-up in a fresh process has nothing to free.
void MeasureSetup(Report& report, const std::function<void()>& teardown,
                  const std::function<void()>& setup);

/// Hex spelling of a 64-bit digest.
std::string Hex(uint64_t value);

/// Prints "fatal: <message>" to stderr and exits 1 without a result line.
[[noreturn]] void Fatal(const std::string& message);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
