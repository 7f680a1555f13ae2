// Benchmark harness: runs one named workload and prints its metrics, with
// the result JSON as the last line of standard output.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--out-dir <dir>]
//
// Exit status: 0 when every answer check passed, 1 otherwise (or on a
// usage or set-up error, without a result line).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Report;

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_harness --workload "
               "<interactive_80k|adhoc_churn|socket_open_loop|offline_batch> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               message.c_str());
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      Usage(std::string("bad argument '") + argv[i] + "'");
    }
    flags[argv[i] + 2] = argv[i + 1];
  }
  for (const auto& [flag, value] : flags) {
    char* end = nullptr;
    if (flag == "workload") {
      options.workload = value;
    } else if (flag == "seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("--seed takes a whole number");
    } else if (flag == "seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "out-dir") {
      options.out_dir = value;
    } else {
      Usage("unknown flag --" + flag);
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  const std::map<std::string, void (*)(const Options&, Report&)> workloads = {
      {"interactive_80k", perfbench::RunInteractive},
      {"adhoc_churn", perfbench::RunAdhocChurn},
      {"socket_open_loop", perfbench::RunSocketOpenLoop},
      {"offline_batch", perfbench::RunOfflineBatch},
  };
  auto it = workloads.find(options.workload);
  if (it == workloads.end()) Usage("unknown workload '" + options.workload + "'");
  std::filesystem::create_directories(options.out_dir);

  Report report;
  perfbench::StampMachine(report);
  report.Stamp("workload", options.workload);
  report.Stamp("seed", std::to_string(options.seed));
  report.Stamp("seconds", std::to_string(options.seconds));
  report.Stamp("trace", options.trace ? "1" : "0");
  it->second(options, report);
  report.Print();
  return report.correct() ? 0 : 1;
}
