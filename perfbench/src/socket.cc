// socket_open_loop: an in-process SocketServer over a Unix socket, driven
// through two connections. Phases:
//  * closed loop: each connection sends its next request, without a
//    deadline, when the previous answer is back; timed and counted by the
//    closed loop the in-process workloads use. The gated end-to-end
//    metrics come from here.
//  * nominal: a Poisson open loop at a fixed rate, each request carrying
//    the client's remaining budget as its deadline, latency timed from its
//    due time (reported as nominal_*; not gated, because on a
//    small shared VM its spread between runs exceeds any usable bound).
//  * ladder: rising open-loop rates; slo_rate_qps is the highest whose p99
//    meets the class limits without a growing backlog.
//  * overload: about twice capacity; goodput, refusals and degradation.
// Untraced runs give the whole window to the closed loop. Traced runs split
// it: an untraced pass through all four phases, then a traced one.
#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "answers.h"
#include "core/materialize.h"
#include "hin/digest.h"
#include "hin/metapath.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace wl = hetesim::workload;
namespace svc = hetesim::service;
using hetesim::MetaPath;

constexpr int kConnections = 2;
constexpr int kServiceWorkers = 2;

const std::vector<QueryClass> kSocketClasses = {
    {kTopK, "A-P-A", 1.0, 10},
    {kPair, "A-P-A", 1.0, 0},
    {kSingle, "A-P-C-P-A", 1.0, 0},
};
/// Per-class latency limits, timed from the due time.
const Limits kSocketLimits = {0.002, 0.002, 0.002};
/// Offered rates, fixed once from measurements of the seed commit
/// (README.md): the nominal rate (about a sixth of the closed loop's
/// throughput), the ladder for slo_rate_qps, and the overload rate.
constexpr double kNominalQps = 4000;
const std::vector<double> kLadderQps = {3000, 6000, 9000, 12000, 15000, 18000, 21000, 24000};
constexpr double kOverloadQps = 60000;
/// Length of the closed loop's stream, which the connections cycle through.
constexpr int64_t kClosedLoopStream = 200000;

// Members are destroyed in reverse order: the server stops before the
// service drains, and both before the graph they serve goes away.
struct SocketState {
  std::unique_ptr<hetesim::DblpDataset> data;
  std::unique_ptr<TempDir> socket_dir;
  std::unique_ptr<svc::QueryService> service;
  std::unique_ptr<svc::SocketServer> server;
  double generate_s = 0;
};

svc::QueryKind KindOf(QueryShape shape) {
  return shape == kTopK ? svc::QueryKind::kTopK
         : shape == kPair ? svc::QueryKind::kPair
                          : svc::QueryKind::kSingleSource;
}

svc::QueryRequest RequestFor(const wl::QuerySpec& spec, int64_t id) {
  const QueryClass& cls = kSocketClasses[static_cast<size_t>(spec.class_id)];
  svc::QueryRequest request;
  request.id = static_cast<uint64_t>(id);
  request.kind = KindOf(cls.shape);
  request.path = cls.path;
  request.source = spec.source;
  request.target = spec.target;
  request.k = spec.k;
  return request;
}

std::unique_ptr<SocketState> SetUpSocket(const Options& options) {
  auto state = std::make_unique<SocketState>();
  const Clock::time_point t = Clock::now();
  hetesim::DblpConfig config;
  config.num_papers = 5000;
  config.num_authors = 2000;
  config.seed = kGraphSeed;
  state->data = MakeDblp(config);
  state->generate_s = SecondsSince(t);

  svc::ServiceOptions service_options;  // default algo, unlimited cache
  service_options.admission.workers = kServiceWorkers;
  service_options.engine.num_threads = 1;
  state->service = svc::QueryService::Create(state->data->graph, service_options);
  state->socket_dir = std::make_unique<TempDir>(options.out_dir, "sock");
  svc::ServerOptions server_options;
  server_options.socket_path = state->socket_dir->path() + "/q.sock";
  server_options.max_connections = kConnections + 2;
  hetesim::Result<std::unique_ptr<svc::SocketServer>> server =
      svc::SocketServer::Start(state->service.get(), server_options);
  if (!server.ok()) Fatal("SocketServer::Start: " + server.status().message());
  state->server = std::move(*server);

  // Warm-up: prepare every class's searcher and fill the cache.
  svc::SocketClient client(server_options.socket_path);
  if (!client.Ping()) Fatal("socket server does not answer a ping");
  for (size_t c = 0; c < kSocketClasses.size(); ++c) {
    wl::QuerySpec spec;
    spec.class_id = static_cast<int>(c);
    spec.k = kSocketClasses[c].k;
    const svc::QueryResponse response = client.Execute(RequestFor(spec, -1));
    if (!response.served()) Fatal("warm-up query was not served: " + response.message);
  }
  return state;
}

/// One request of an open-loop phase, timed against its due time. Only
/// the response's disposition is kept; full answers are kept for a sample
/// (see `Phase::kept`).
struct Sample {
  QueryShape shape = kPair;
  double due = 0;   ///< seconds from phase start
  double sent = 0;
  double done = 0;
  OpenLoopTiming timing;  ///< latency from the due time, and lateness
  svc::ResponseOutcome outcome = svc::ResponseOutcome::kError;
  svc::DegradationLevel degradation = svc::DegradationLevel::kFull;
  bool truncated = false;
  double queue_ms = 0;
  double exec_ms = 0;
  double codec_s = -1;  ///< traced passes: EncodeRequest + DecodeResponse

  bool served() const {
    return outcome == svc::ResponseOutcome::kOk || outcome == svc::ResponseOutcome::kDegraded;
  }
  bool refused() const {
    return outcome == svc::ResponseOutcome::kRejected || outcome == svc::ResponseOutcome::kShed;
  }
  /// Served in full: not degraded, not a truncated top-k.
  bool full() const { return outcome == svc::ResponseOutcome::kOk && !truncated; }
  /// Cut short by its own deadline: died on it, or a truncated top-k.
  bool cut() const { return outcome == svc::ResponseOutcome::kDeadlineExceeded || truncated; }
  /// Every request carries a deadline, so besides being served it may be
  /// refused, degraded or cut short by it; anything else failed.
  bool failed() const { return !served() && !refused() && !cut(); }
};

/// Full answers kept per connection and shape, for the answer checks.
constexpr int kKeptPerShape = 20;

/// True when a response's markers agree with its outcome: a degraded
/// answer, and only a degraded one, carries a degradation level, and only
/// top-k answers are truncated.
bool MarkersConsistent(QueryShape shape, svc::ResponseOutcome outcome,
                       svc::DegradationLevel degradation, bool truncated) {
  const bool served =
      outcome == svc::ResponseOutcome::kOk || outcome == svc::ResponseOutcome::kDegraded;
  if (served && (degradation != svc::DegradationLevel::kFull) !=
                    (outcome == svc::ResponseOutcome::kDegraded)) {
    return false;
  }
  return !truncated || shape == kTopK;
}

using KeptAnswers = std::vector<std::pair<svc::QueryRequest, svc::QueryResponse>>;

/// What the closed loop keeps for the answer checks: a sample of full
/// answers, and whether every response's markers were consistent.
struct ClosedLoopAnswers {
  std::mutex mu;
  KeptAnswers kept;                            // guarded by mu
  std::array<int, 3> kept_per_shape = {0, 0, 0};  // guarded by mu
  std::atomic<bool> markers_ok{true};
};

/// The closed loop over the socket: `kConnections` clients cycle through
/// `schedule`, each sending its next request, without a deadline, as soon
/// as its previous answer is back. A request counts as failed unless it
/// comes back in full.
ClosedLoopResult RunSocketClosedLoop(const SocketState& state, const wl::Schedule& schedule,
                                     double seconds, bool traced, ClosedLoopAnswers& answers) {
  const std::string& socket_path = state.server->socket_path();
  const QueryExecutor execute = [&](const wl::QuerySpec& spec, hetesim::Trace* trace) {
    // RunClosedLoop runs each client on a thread of its own, so a
    // thread-local client is one connection per client; it closes when
    // the loop's threads end.
    thread_local std::unique_ptr<svc::SocketClient> client;
    if (client == nullptr) client = std::make_unique<svc::SocketClient>(socket_path);
    const QueryShape shape = kSocketClasses[static_cast<size_t>(spec.class_id)].shape;
    svc::QueryRequest request = RequestFor(spec, spec.index);
    svc::QueryResponse response;
    {
      hetesim::TraceSpan span(trace, "service.execute");
      response = client->Execute(request);
    }
    if (!MarkersConsistent(shape, response.outcome, response.degradation, response.truncated)) {
      answers.markers_ok = false;
    }
    const bool full = response.outcome == svc::ResponseOutcome::kOk && !response.truncated;
    if (full) {
      std::lock_guard<std::mutex> lock(answers.mu);
      if (answers.kept_per_shape[shape] < kKeptPerShape * kConnections) {
        ++answers.kept_per_shape[shape];
        answers.kept.emplace_back(std::move(request), std::move(response));
      }
    }
    return full;
  };
  return RunClosedLoop(schedule, kSocketClasses, kSocketLimits, kConnections, seconds, traced,
                       execute);
}

struct Phase {
  double seconds = 0;  ///< planned length of the arrival schedule
  double elapsed = 0;  ///< wall time until the last answer
  std::vector<Sample> samples;
  KeptAnswers kept;
  SpanLog spans;
};

/// Drives `rate` requests per second (Poisson arrivals) for `seconds`
/// through `kConnections` connections, each sending its next due request
/// as soon as its previous answer is back.
Phase RunPhase(const SocketState& state, const std::vector<wl::ClassDomain>& domains,
               uint64_t seed, double rate, double seconds, bool traced) {
  const int64_t n = std::max<int64_t>(1, static_cast<int64_t>(rate * seconds));
  const wl::Schedule schedule = MakeSchedule(kSocketClasses, domains, seed, n, false, rate);
  Phase phase;
  phase.seconds = seconds;
  phase.samples.resize(static_cast<size_t>(n));
  struct Shard {
    SpanLog spans;
    KeptAnswers kept;
    std::array<int, 3> kept_per_shape = {0, 0, 0};
  };
  std::vector<Shard> shards(kConnections);
  std::atomic<int64_t> next{0};
  const std::string socket_path = state.server->socket_path();
  const Clock::time_point start = Clock::now();
  auto connection = [&](int c) {
    Shard& shard = shards[static_cast<size_t>(c)];
    svc::SocketClient client(socket_path);
    while (true) {
      const int64_t i = next.fetch_add(1);
      if (i >= n) break;
      const wl::QuerySpec& spec = schedule.specs[static_cast<size_t>(i)];
      Sample& sample = phase.samples[static_cast<size_t>(i)];
      sample.shape = kSocketClasses[static_cast<size_t>(spec.class_id)].shape;
      sample.due = static_cast<double>(spec.arrival_us) * 1e-6;
      // Sleep while the due time is far, spin the last stretch: a timer
      // wake-up alone runs tens of microseconds late.
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(sample.due));
      if (Clock::now() + std::chrono::microseconds(300) < due) {
        std::this_thread::sleep_until(due - std::chrono::microseconds(200));
      }
      while (Clock::now() < due) {
      }
      svc::QueryRequest request = RequestFor(spec, i);
      sample.sent = SecondsSince(start);
      // The client's remaining budget: the class limit minus the time the
      // request already waited behind the connections.
      const double remaining_ms = (kSocketLimits[sample.shape] - (sample.sent - sample.due)) * 1e3;
      request.deadline_ms = std::max(remaining_ms, 0.001);
      svc::QueryResponse response;
      if (traced) {
        hetesim::Trace trace;
        {
          hetesim::TraceSpan root(&trace, std::string("driver.") + kShapeNames[sample.shape]);
          hetesim::TraceSpan span(&trace, "service.execute");
          response = client.Execute(request);
        }
        sample.done = SecondsSince(start);
        shard.spans.Absorb(trace, i);
        const std::string response_bytes = svc::EncodeResponse(response);
        const Clock::time_point codec_start = Clock::now();
        const std::string request_bytes = svc::EncodeRequest(request);
        const bool decoded = svc::DecodeResponse(response_bytes).ok();
        sample.codec_s = decoded && !request_bytes.empty() ? SecondsSince(codec_start) : -1;
      } else {
        response = client.Execute(request);
        sample.done = SecondsSince(start);
      }
      sample.timing = TimeFromDue(sample.due, sample.sent, sample.done);
      sample.outcome = response.outcome;
      sample.degradation = response.degradation;
      sample.truncated = response.truncated;
      sample.queue_ms = response.queue_ms;
      sample.exec_ms = response.exec_ms;
      if (response.served() && !response.truncated &&
          shard.kept_per_shape[sample.shape] < kKeptPerShape) {
        ++shard.kept_per_shape[sample.shape];
        shard.kept.emplace_back(std::move(request), std::move(response));
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) threads.emplace_back(connection, c);
  for (std::thread& t : threads) t.join();
  phase.elapsed = SecondsSince(start);
  for (Shard& shard : shards) {
    phase.spans.Merge(shard.spans);
    for (auto& kept : shard.kept) phase.kept.push_back(std::move(kept));
  }
  return phase;
}

/// Per-shape latencies (from the due time) of every request, failed ones
/// included, except refusals: that is the service declining the request,
/// counted as an SLO miss instead.
std::array<std::vector<double>, 3> Latencies(const Phase& phase) {
  std::array<std::vector<double>, 3> latency;
  for (const Sample& s : phase.samples) {
    if (!s.refused()) latency[s.shape].push_back(s.timing.latency);
  }
  return latency;
}

/// Backlog (due but not yet sent) at 20 evenly spaced instants.
std::vector<double> BacklogSamples(const Phase& phase, double seconds) {
  std::vector<double> backlog;
  for (int k = 1; k <= 20; ++k) {
    const double tau = seconds * k / 20.0;
    int64_t waiting = 0;
    for (const Sample& s : phase.samples) {
      if (s.due <= tau && s.sent > tau) ++waiting;
    }
    backlog.push_back(static_cast<double>(waiting));
  }
  return backlog;
}

struct PassResult {
  ClosedLoopResult closed;
  Phase nominal;
  Phase overload;
  std::vector<LadderStep> ladder;
  double slo_rate = 0;
};

/// One pass: the closed loop (40% of `seconds`), the nominal open-loop
/// rate (20%), the ladder (25%, stopping at its first failing step) and
/// the overload rate (15%).
PassResult RunPass(const SocketState& state, const std::vector<wl::ClassDomain>& domains,
                   const wl::Schedule& closed_schedule, uint64_t seed, double seconds,
                   bool traced, ClosedLoopAnswers& answers) {
  const double step_s = 0.25 * seconds / static_cast<double>(kLadderQps.size());
  PassResult pass;
  pass.closed = RunSocketClosedLoop(state, closed_schedule, 0.4 * seconds, traced, answers);
  pass.nominal = RunPhase(state, domains, seed + 1, kNominalQps, 0.2 * seconds, traced);
  uint64_t step_seed = seed + 2;
  pass.slo_rate = SloRateLadder(
      kLadderQps,
      [&](double rate) {
        const Phase phase = RunPhase(state, domains, step_seed++, rate, step_s, false);
        std::array<std::vector<double>, 3> latency = Latencies(phase);
        LadderStep step;
        step.p99_within_limits = true;
        for (int s = 0; s < 3; ++s) {
          int64_t attempted = 0, not_full = 0;
          for (const Sample& sample : phase.samples) {
            if (sample.shape != s) continue;
            ++attempted;
            if (!sample.full()) ++not_full;
          }
          // Refused, degraded, cut-short or failed requests count as
          // misses of the limit.
          if (Summarize(latency[s]).p99 > kSocketLimits[s] || not_full * 100 > attempted) {
            step.p99_within_limits = false;
          }
        }
        step.backlog_growing = BacklogGrowing(BacklogSamples(phase, step_s), 4.0);
        return step;
      },
      &pass.ladder);
  pass.overload = RunPhase(state, domains, seed + 100, kOverloadQps, 0.15 * seconds, traced);
  return pass;
}

/// Per-shape p50/p99 of `phase` as `<prefix><shape>_p50_ms` / `_p99_ms`.
void ReportLatencies(const Phase& phase, const std::string& prefix, Report& report) {
  std::array<std::vector<double>, 3> latency = Latencies(phase);
  for (int s = 0; s < 3; ++s) {
    const std::string name = prefix + kShapeNames[s];
    report.SetTiming(name + "_p50_ms", name + "_p99_ms", Summarize(latency[s]), 1e3, "ms");
  }
}

/// Rate of answers served in full, and of those within their class limit.
void ReportRates(const Phase& phase, const std::string& throughput, const std::string& goodput,
                 Report& report) {
  int64_t full = 0, met = 0;
  for (const Sample& s : phase.samples) {
    if (!s.full()) continue;
    ++full;
    if (s.timing.latency <= kSocketLimits[s.shape]) ++met;
  }
  report.Set(throughput, static_cast<double>(full) / phase.elapsed, "1/s", full);
  report.Set(goodput, static_cast<double>(met) / phase.elapsed, "1/s", met);
}

/// Outcome counts of one phase, printed so no request goes unaccounted.
std::string OutcomeTally(const std::string& name, const Phase& phase) {
  int64_t full = 0, degraded = 0, refused = 0, cut = 0, failed = 0;
  for (const Sample& s : phase.samples) {
    if (s.failed()) {
      ++failed;
    } else if (s.full()) {
      ++full;
    } else if (s.refused()) {
      ++refused;
    } else if (s.cut()) {
      ++cut;
    } else {
      ++degraded;
    }
  }
  return name + " " + std::to_string(phase.samples.size()) + " requests: " +
         std::to_string(full) + " full, " + std::to_string(degraded) + " degraded, " +
         std::to_string(refused) + " refused, " + std::to_string(cut) +
         " cut short by their deadline, " + std::to_string(failed) + " failed";
}

/// Gated: the closed loop over the socket. The open-loop figures follow,
/// when the pass ran those phases, under their own names (see README.md
/// for why they are not gated).
void ReportEndToEnd(PassResult& pass, Report& report) {
  ReportClosedLoop(pass.closed, report);
  std::string tally = "socket_open_loop: closed loop " +
                      std::to_string(pass.closed.attempted) + " requests, " +
                      std::to_string(pass.closed.failed) + " not answered in full";
  if (!pass.nominal.samples.empty()) {
    ReportLatencies(pass.nominal, "nominal_", report);
    ReportRates(pass.overload, "overload_throughput_qps", "overload_goodput_qps", report);
    report.Set("slo_rate_qps", pass.slo_rate, "1/s", static_cast<int64_t>(pass.ladder.size()));
    // slo_miss_frac and error_frac over every phase, the closed loop's
    // counts included.
    SloCounter slo;
    int64_t attempted = 0, failed = 0;
    for (const Phase* phase : {&pass.nominal, &pass.overload}) {
      for (const Sample& s : phase->samples) {
        ++attempted;
        failed += s.failed();
        slo.Record(s.full(), s.timing.latency, kSocketLimits[s.shape]);
      }
    }
    report.AddAttempts(attempted, failed);
    const int64_t all = attempted + pass.closed.attempted;
    const int64_t missed = slo.missed() + pass.closed.attempted - pass.closed.met;
    report.Set("slo_miss_frac", static_cast<double>(missed) / static_cast<double>(all), "ratio",
               all);
    report.Set("error_frac",
               static_cast<double>(failed + pass.closed.failed) / static_cast<double>(all),
               "ratio", all);
    tally += "; " + OutcomeTally("nominal", pass.nominal) + "; " +
             OutcomeTally("overload", pass.overload);
  }
  report.Note(tally);
}

void ReportService(const PassResult& pass, Report& report) {
  std::vector<double> queue, exec, transport, codec, lateness;
  for (const Sample& s : pass.nominal.samples) {
    lateness.push_back(s.timing.lateness);
    if (s.codec_s >= 0) codec.push_back(s.codec_s);
    if (s.refused()) continue;
    queue.push_back(s.queue_ms * 1e-3);
    exec.push_back(s.exec_ms * 1e-3);
    transport.push_back((s.done - s.sent) - (s.queue_ms + s.exec_ms) * 1e-3);
  }
  report.SetTiming("service.queue_ms.p50", "service.queue_ms.p99", Summarize(queue), 1e3, "ms");
  report.SetTiming("service.exec_ms.p50", "service.exec_ms.p99", Summarize(exec), 1e3, "ms");
  report.SetTiming("service.transport_ms.p50", "service.transport_ms.p99", Summarize(transport),
                   1e3, "ms");
  report.Set("service.codec_us", Summarize(codec).p50 * 1e6, "us", static_cast<int64_t>(codec.size()));
  const Summary late = Summarize(lateness);
  report.Set("driver.lateness_ms.p99", late.p99 * 1e3, "ms", late.count);
  int64_t served = 0, rejected = 0, shed = 0, degraded = 0;
  for (const Sample& s : pass.overload.samples) {
    if (s.served()) ++served;
    if (s.outcome == svc::ResponseOutcome::kRejected) ++rejected;
    if (s.outcome == svc::ResponseOutcome::kShed) ++shed;
    if (s.outcome == svc::ResponseOutcome::kDegraded) ++degraded;
  }
  const int64_t n = static_cast<int64_t>(pass.overload.samples.size());
  report.Set("service.served_frac", n > 0 ? static_cast<double>(served) / static_cast<double>(n) : 0.0,
             "ratio", n);
  report.Set("service.rejected", static_cast<double>(rejected), "count");
  report.Set("service.shed", static_cast<double>(shed), "count");
  report.Set("service.degraded", static_cast<double>(degraded), "count");
  report.Set("service.slo_rate_qps", pass.slo_rate, "1/s", static_cast<int64_t>(pass.ladder.size()));
  std::string ladder = "socket_open_loop ladder:";
  for (const LadderStep& step : pass.ladder) {
    ladder += ' ';
    ladder += std::to_string(static_cast<int>(step.rate));
    ladder += step.passed() ? " ok" : step.backlog_growing ? " backlog" : " p99-miss";
  }
  report.Note(ladder);
}

/// Checks full answers kept by a phase against in-process answers to the
/// same requests.
void CheckKept(const KeptAnswers& kept, const std::vector<MetaPath>& paths,
               const hetesim::HeteSimEngine& engine, const hetesim::TopKSearcher& searcher,
               AnswerChecker& checker) {
  for (const auto& [request, response] : kept) {
    const std::string what = std::string("response ") + std::to_string(request.id) + " (" +
                             svc::QueryKindName(request.kind) + ")";
    switch (request.kind) {
      case svc::QueryKind::kTopK: {
        hetesim::Result<hetesim::TopKResult> want = searcher.Query(request.source, request.k);
        if (!want.ok()) Fatal("in-process top-k: " + want.status().message());
        checker.CompareTopK(what, response.items, want->items, kAnswerTolerance);
        break;
      }
      case svc::QueryKind::kPair: {
        hetesim::Result<std::vector<double>> want =
            engine.ComputePairs(paths[kPair], {{request.source, request.target}});
        if (!want.ok()) Fatal("in-process pair: " + want.status().message());
        checker.CompareScores(what, response.scores, *want);
        break;
      }
      case svc::QueryKind::kSingleSource: {
        hetesim::Result<std::vector<double>> want =
            engine.ComputeSingleSource(paths[kSingle], request.source);
        if (!want.ok()) Fatal("in-process single-source: " + want.status().message());
        checker.CompareScores(what, response.scores, *want);
        break;
      }
    }
  }
}

}  // namespace

void RunSocketOpenLoop(const Options& options, Report& report) {
  std::unique_ptr<SocketState> state;
  MeasureSetup(report, [&] { state.reset(); }, [&] {
    state = SetUpSocket(options);
  });
  const hetesim::HinGraph& graph = state->data->graph;
  std::vector<MetaPath> paths;
  std::vector<wl::ClassDomain> domains;
  for (const QueryClass& cls : kSocketClasses) {
    hetesim::Result<MetaPath> path = MetaPath::Parse(graph.schema(), cls.path);
    if (!path.ok()) Fatal("MetaPath::Parse: " + path.status().message());
    domains.push_back({graph.NumNodes(path->SourceType()), graph.NumNodes(path->TargetType())});
    paths.push_back(std::move(*path));
  }
  // The closed loop's stream stands for the workload's input.
  const wl::Schedule closed_schedule =
      MakeSchedule(kSocketClasses, domains, options.seed, kClosedLoopStream, false);
  StampInputs(report, hetesim::GraphDigest(graph), closed_schedule.digest);

  ClosedLoopAnswers answers;    // checked below: the untraced pass
  ClosedLoopAnswers unchecked;  // the warm-up and the traced pass
  RunSocketClosedLoop(*state, closed_schedule, kWarmupSeconds, false, unchecked);  // untimed
  PassResult pass;
  if (!options.trace) {
    // The gated figures come from the closed loop, so an untraced run gives
    // it the whole window; the open-loop phases run in traced runs.
    pass.closed = RunSocketClosedLoop(*state, closed_schedule, options.seconds, false, answers);
    ReportEndToEnd(pass, report);
  } else {
    const double pass_seconds = options.seconds / 2;
    pass = RunPass(*state, domains, closed_schedule, options.seed, pass_seconds, false, answers);
    ReportEndToEnd(pass, report);
    DeclarePerLayerMetrics(report);
    report.Set("datagen.generate_s", state->generate_s, "s");
    PassResult traced =
        RunPass(*state, domains, closed_schedule, options.seed, pass_seconds, true, unchecked);
    ReportService(traced, report);
    report.Set("driver.trace_overhead_frac",
               TraceOverhead(MeanLatency(pass.closed), MeanLatency(traced.closed)),
               "ratio");
    WriteTrace(traced.closed.spans, "closed", options, report);
    // Self-check, on the untraced pass: refusals belong to the overload
    // phase; at the nominal rate they stay under 1%.
    int64_t nominal_refused = 0, overload_refused = 0;
    for (const Sample& s : pass.nominal.samples) nominal_refused += s.refused();
    for (const Sample& s : pass.overload.samples) overload_refused += s.refused();
    report.Note("socket_open_loop: " + std::to_string(nominal_refused) + " of " +
                std::to_string(pass.nominal.samples.size()) + " refused at the nominal rate, " +
                std::to_string(overload_refused) + " of " +
                std::to_string(pass.overload.samples.size()) + " at the overload rate");
    if (overload_refused == 0) report.Warn("socket_open_loop: no refusals at the overload rate");
    if (nominal_refused * 100 > static_cast<int64_t>(pass.nominal.samples.size())) {
      report.Warn("socket_open_loop: more than 1% refused at the nominal rate");
    }
  }

  // Answer checks against in-process answers, outside the timed phases.
  hetesim::HeteSimOptions engine_options;  // the service's default algo
  const hetesim::HeteSimEngine engine(graph, engine_options,
                                      std::make_shared<hetesim::PathMatrixCache>());
  hetesim::Result<hetesim::TopKSearcher> searcher = hetesim::TopKSearcher::Prepare(
      graph, paths[kTopK], engine_options, hetesim::QueryContext::Background());
  if (!searcher.ok()) Fatal("TopKSearcher::Prepare: " + searcher.status().message());
  hetesim::HeteSimOptions oracle_options;
  oracle_options.algo = hetesim::RelevanceAlgo::kExhaustive;
  const hetesim::HeteSimEngine oracle(graph, oracle_options);
  AnswerChecker checker(oracle);
  checker.Expect(answers.markers_ok, "every closed-loop response carries consistent markers");
  CheckKept(answers.kept, paths, engine, *searcher, checker);
  for (const Phase* phase : {&pass.nominal, &pass.overload}) {
    const bool markers_ok =
        std::all_of(phase->samples.begin(), phase->samples.end(), [](const Sample& s) {
          return MarkersConsistent(s.shape, s.outcome, s.degradation, s.truncated);
        });
    checker.Expect(markers_ok, "every degraded or truncated response carries its marker");
    CheckKept(phase->kept, paths, engine, *searcher, checker);
  }
  checker.Finish("socket_open_loop", report);
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
