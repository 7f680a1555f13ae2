// Pieces shared by the query workloads: stream generation, query
// execution, the closed loop, answer sampling and the per-layer table.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "answers.h"
#include "common/random.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {

namespace wl = hetesim::workload;
using hetesim::QueryContext;
using hetesim::TraceSpan;

std::vector<wl::ClassDomain> PreparedClasses::Domains(const hetesim::HinGraph& graph) const {
  std::vector<wl::ClassDomain> domains;
  for (const hetesim::MetaPath& path : paths) {
    domains.push_back({graph.NumNodes(path.SourceType()), graph.NumNodes(path.TargetType())});
  }
  return domains;
}

PreparedClasses PrepareClasses(const hetesim::HinGraph& graph, std::vector<QueryClass> classes,
                               const hetesim::HeteSimOptions& options,
                               hetesim::PathMatrixCache* cache, double* prepare_seconds) {
  PreparedClasses prepared;
  prepared.classes = std::move(classes);
  std::map<std::string, std::shared_ptr<const hetesim::TopKSearcher>> by_path;
  const Clock::time_point start = Clock::now();
  for (const QueryClass& cls : prepared.classes) {
    hetesim::Result<hetesim::MetaPath> path = hetesim::MetaPath::Parse(graph.schema(), cls.path);
    if (!path.ok()) Fatal("MetaPath::Parse(" + cls.path + "): " + path.status().message());
    std::shared_ptr<const hetesim::TopKSearcher>& searcher = by_path[cls.path];
    if (cls.shape == kTopK && searcher == nullptr) {
      hetesim::Result<hetesim::TopKSearcher> made =
          hetesim::TopKSearcher::Prepare(graph, *path, options, QueryContext::Background(), cache);
      if (!made.ok()) Fatal("TopKSearcher::Prepare(" + cls.path + "): " + made.status().message());
      searcher = std::make_shared<const hetesim::TopKSearcher>(std::move(*made));
    }
    prepared.paths.push_back(std::move(*path));
    prepared.searchers.push_back(cls.shape == kTopK ? searcher : nullptr);
  }
  if (prepare_seconds != nullptr) *prepare_seconds = SecondsSince(start);
  return prepared;
}

bool ExecuteQuery(QueryShape shape, const hetesim::MetaPath& path, const wl::QuerySpec& spec,
                  const hetesim::HeteSimEngine& engine, const hetesim::TopKSearcher* searcher,
                  hetesim::Trace* trace) {
  const QueryContext ctx = trace == nullptr ? QueryContext::Background()
                                            : QueryContext::Background().WithTrace(trace);
  switch (shape) {
    case kTopK: {
      TraceSpan span(trace, "core.topk");
      hetesim::Result<hetesim::TopKResult> r = searcher->Query(spec.source, spec.k, ctx);
      return r.ok() && !r->truncated;
    }
    case kPair: {
      TraceSpan span(trace, "core.pair");
      return engine.ComputePairs(path, {{spec.source, spec.target}}, ctx).ok();
    }
    case kSingle: {
      TraceSpan span(trace, "core.single");
      return engine.ComputeSingleSource(path, spec.source).ok();
    }
  }
  return false;
}

void CheckAnswers(const wl::Schedule& schedule, const PreparedClasses& prepared,
                  const hetesim::HeteSimEngine& engine, int per_class,
                  const std::string& workload, Report& report) {
  hetesim::HeteSimOptions oracle_options;
  oracle_options.algo = hetesim::RelevanceAlgo::kExhaustive;
  const hetesim::HeteSimEngine oracle(engine.graph(), oracle_options);
  AnswerChecker checker(oracle);
  const int num_classes = static_cast<int>(prepared.classes.size());
  for (const wl::QuerySpec& spec : SampleSpecs(schedule, num_classes, per_class)) {
    const size_t c = static_cast<size_t>(spec.class_id);
    const hetesim::MetaPath& path = prepared.paths[c];
    switch (prepared.classes[c].shape) {
      case kTopK:
        checker.CheckTopK(path, spec, *prepared.searchers[c]);
        break;
      case kPair:
        checker.CheckPair(path, spec, engine);
        break;
      case kSingle:
        checker.CheckSingle(path, spec, engine);
        break;
    }
  }
  checker.Finish(workload, report);
}

namespace {

/// The objects 0..size-1 in a fresh seeded order per pass: every object is
/// dealt once before any is dealt twice.
class Deck {
 public:
  Deck(hetesim::Index size, uint64_t seed) : size_(size), seed_(seed) {}

  hetesim::Index Next() {
    if (next_ == order_.size()) {
      order_.resize(static_cast<size_t>(size_));
      for (hetesim::Index i = 0; i < size_; ++i) order_[static_cast<size_t>(i)] = i;
      hetesim::Rng rng(wl::DeriveStreamSeed(seed_, pass_++));
      rng.Shuffle(order_);
      next_ = 0;
    }
    return order_[next_++];
  }

 private:
  hetesim::Index size_;
  uint64_t seed_;
  uint64_t pass_ = 0;
  std::vector<hetesim::Index> order_;
  size_t next_ = 0;
};

}  // namespace

wl::Schedule MakeSchedule(const std::vector<QueryClass>& classes,
                          const std::vector<wl::ClassDomain>& domains, uint64_t seed,
                          int64_t num_queries, bool zipf, double rate_qps) {
  wl::WorkloadConfig config;
  config.name = "perfbench";
  config.seed = seed;
  config.num_queries = num_queries;
  if (rate_qps > 0) {
    config.arrival = wl::ArrivalMode::kOpenLoop;
    config.rate_qps = rate_qps;
  }
  for (const QueryClass& cls : classes) {
    wl::QueryClassSpec spec;
    spec.name = std::string(kShapeNames[cls.shape]) + ":" + cls.path;
    spec.type = cls.shape == kTopK   ? wl::QueryType::kTopK
                : cls.shape == kPair ? wl::QueryType::kPair
                                     : wl::QueryType::kSingleSource;
    spec.path_spec = cls.path;
    spec.weight = cls.weight;
    spec.k = cls.k;
    config.classes.push_back(spec);
  }
  hetesim::Result<wl::Schedule> schedule = wl::BuildSchedule(config, domains);
  if (!schedule.ok()) Fatal("BuildSchedule: " + schedule.status().message());
  uint64_t digest = schedule->digest;
  if (!zipf) {
    // Uniform sources, and pair targets, dealt from shuffled decks: each
    // class draws every object once, in a seeded order, before it draws any
    // twice. A run then covers nearly the same multiset of queries whatever
    // the seed, so a tail percentile no longer depends on how often a seed
    // happens to draw the few costliest sources.
    std::vector<Deck> sources, targets;
    for (size_t c = 0; c < domains.size(); ++c) {
      sources.emplace_back(domains[c].num_sources, wl::DeriveStreamSeed(seed, 2 * c + 1));
      targets.emplace_back(domains[c].num_targets, wl::DeriveStreamSeed(seed, 2 * c + 2));
    }
    for (wl::QuerySpec& spec : schedule->specs) {
      const size_t c = static_cast<size_t>(spec.class_id);
      spec.source = sources[c].Next();
      if (classes[c].shape == kPair) spec.target = targets[c].Next();
      digest = wl::Fnv1a64(&spec.source, sizeof(spec.source), digest);
      digest = wl::Fnv1a64(&spec.target, sizeof(spec.target), digest);
    }
    schedule->digest = digest;
    return std::move(*schedule);
  }

  // Zipf sources over a fixed popularity order: which objects are hot is a
  // property of the workload, like the graph; the seed gives the draws.
  // (The library's sampler derives the order from the stream seed, which
  // would make the hot set, and so the cost of a run, vary with the seed.)
  std::vector<wl::PopularitySampler> samplers;
  for (const wl::ClassDomain& domain : domains) {
    samplers.emplace_back(wl::PopularityKind::kZipf, domain.num_sources, 1.05, kGraphSeed);
  }
  for (wl::QuerySpec& spec : schedule->specs) {
    hetesim::Rng rng(wl::DeriveStreamSeed(wl::DeriveStreamSeed(seed, 0x5a495046),
                                          static_cast<uint64_t>(spec.index)));
    spec.source = samplers[static_cast<size_t>(spec.class_id)].Sample(rng);
    digest = wl::Fnv1a64(&spec.source, sizeof(spec.source), digest);
  }
  schedule->digest = digest;
  return std::move(*schedule);
}

ClosedLoopResult RunClosedLoop(const wl::Schedule& schedule,
                               const std::vector<QueryClass>& classes, const Limits& limits,
                               int workers, double seconds, bool traced,
                               const QueryExecutor& execute) {
  struct Shard {
    std::array<std::vector<double>, 3> latency;
    int64_t attempted = 0;
    int64_t failed = 0;
    int64_t met = 0;
    SpanLog spans;
  };
  std::vector<Shard> shards(static_cast<size_t>(workers));
  std::atomic<int64_t> next{0};
  const size_t n = schedule.specs.size();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(seconds));
  auto worker = [&](int w) {
    Shard& shard = shards[static_cast<size_t>(w)];
    while (Clock::now() < end) {
      const int64_t op = next.fetch_add(1, std::memory_order_relaxed);
      const wl::QuerySpec& spec = schedule.specs[static_cast<size_t>(op) % n];
      const QueryShape shape = classes[static_cast<size_t>(spec.class_id)].shape;
      bool ok = false;
      const Clock::time_point issue = Clock::now();
      Clock::time_point done;
      if (traced) {
        hetesim::Trace trace;
        {
          hetesim::TraceSpan root(&trace, std::string("driver.") + kShapeNames[shape]);
          ok = execute(spec, &trace);
        }
        done = Clock::now();
        shard.spans.Absorb(trace, op);
      } else {
        ok = execute(spec, nullptr);
        done = Clock::now();
      }
      const double latency = SecondsBetween(issue, done);
      shard.latency[shape].push_back(latency);
      ++shard.attempted;
      if (!ok) {
        ++shard.failed;
      } else if (latency <= limits[shape]) {
        ++shard.met;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) threads.emplace_back(worker, w);
  for (std::thread& t : threads) t.join();

  ClosedLoopResult result;
  result.seconds = SecondsSince(start);
  for (int s = 0; s < 3; ++s) {
    // Sized once: merging never reallocates, so the memory the latencies
    // add to peak_rss_mb follows their number without jumps.
    size_t total = 0;
    for (const Shard& shard : shards) total += shard.latency[s].size();
    result.latency[s].reserve(total);
  }
  for (Shard& shard : shards) {
    for (int s = 0; s < 3; ++s) {
      result.latency[s].insert(result.latency[s].end(), shard.latency[s].begin(),
                               shard.latency[s].end());
    }
    result.attempted += shard.attempted;
    result.failed += shard.failed;
    result.met += shard.met;
    if (traced) result.spans.Merge(shard.spans);
  }
  return result;
}

void ReportClosedLoop(ClosedLoopResult& result, Report& report) {
  for (int s = 0; s < 3; ++s) {
    const std::string name = kShapeNames[s];
    report.SetTiming(name + "_p50_ms", name + "_p99_ms", Summarize(result.latency[s]), 1e3,
                     "ms");
  }
  const int64_t served = result.attempted - result.failed;
  report.Set("throughput_qps", static_cast<double>(served) / result.seconds, "1/s", served);
  report.Set("goodput_qps", static_cast<double>(result.met) / result.seconds, "1/s", result.met);
  const double attempted = static_cast<double>(std::max<int64_t>(result.attempted, 1));
  report.Set("slo_miss_frac", static_cast<double>(result.attempted - result.met) / attempted,
             "ratio", result.attempted);
  report.Set("error_frac", static_cast<double>(result.failed) / attempted, "ratio",
             result.attempted);
  report.AddAttempts(result.attempted, result.failed);
}

double MeanLatency(const ClosedLoopResult& result) {
  double sum = 0;
  int64_t n = 0;
  for (const std::vector<double>& v : result.latency) {
    for (double x : v) sum += x;
    n += static_cast<int64_t>(v.size());
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

void ReportMatrixDeltas(const CounterSnapshot& before, const CounterSnapshot& after,
                        Report& report) {
  auto d = [&](const char* name) { return before.Delta(after, name); };
  report.Set("matrix.spgemm_rows",
             d("hetesim_spgemm_rows_sorted_merge_total") + d("hetesim_spgemm_rows_hash_total") +
                 d("hetesim_spgemm_rows_dense_scratch_total"),
             "count");
  const double actual = d("hetesim_plan_actual_nnz_total");
  report.Set("matrix.plan_actual_nnz", actual, "count");
  report.Set("matrix.plan_nnz_ratio",
             actual > 0 ? d("hetesim_plan_predicted_nnz_total") / actual : 0.0, "ratio");
}

namespace {

/// Registry deltas of the matrix, cache and store layers over a pass.
void ReportCounterDeltas(const CounterSnapshot& before, const CounterSnapshot& after,
                         int64_t topk_queries, Report& report) {
  auto d = [&](const char* name) { return before.Delta(after, name); };
  const double hits = d("hetesim_cache_hits_total");
  const double misses = d("hetesim_cache_misses_total");
  report.Set("cache.hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
             static_cast<int64_t>(hits + misses));
  report.Set("cache.evictions", d("hetesim_cache_evictions_total"), "count");
  const double probes =
      d("hetesim_cache_prefix_probes_total") + d("hetesim_cache_suffix_probes_total");
  const double probe_hits =
      d("hetesim_cache_prefix_probe_hits_total") + d("hetesim_cache_suffix_probe_hits_total");
  report.Set("cache.partial_reuse_frac", probes > 0 ? probe_hits / probes : 0.0, "ratio",
             static_cast<int64_t>(probes));
  const double store_hits = d("hetesim_store_hits_total");
  report.Set("store.read_frac", misses > 0 ? store_hits / misses : 0.0, "ratio",
             static_cast<int64_t>(misses));
  report.Set("store.demotions", d("hetesim_store_demotions_total"), "count");
  report.Set("store.writes", d("hetesim_store_writes_total"), "count");
  report.Set("store.corrupt_entries", d("hetesim_store_corrupt_entries_total"), "count");
  ReportMatrixDeltas(before, after, report);
  report.Set("core.bound_exit_frac",
             topk_queries > 0
                 ? d("hetesim_topk_bound_exits_total") / static_cast<double>(topk_queries)
                 : 0.0,
             "ratio", topk_queries);
}

}  // namespace

QueryPasses RunQueryPasses(const Options& options, const wl::Schedule& schedule,
                           const std::vector<QueryClass>& classes, const Limits& limits,
                           const QueryExecutor& execute, Report& report) {
  constexpr int kClients = 4;
  const double pass_seconds = options.trace ? options.seconds / 2 : options.seconds;
  QueryPasses passes;
  passes.before = CounterSnapshot::Take();
  // Warm-up, not timed: the first second of full load after the
  // single-threaded set-up runs slow on small VMs while idle vCPUs ramp up.
  // Its work is counted: on adhoc_churn it is when never-seen halves are
  // computed and first demoted.
  RunClosedLoop(schedule, classes, limits, kClients, kWarmupSeconds, false, execute);
  passes.untraced =
      RunClosedLoop(schedule, classes, limits, kClients, pass_seconds, false, execute);
  passes.after = CounterSnapshot::Take();
  ReportClosedLoop(passes.untraced, report);
  if (!options.trace) return passes;

  DeclarePerLayerMetrics(report);
  ReportCounterDeltas(passes.before, passes.after,
                      static_cast<int64_t>(passes.untraced.latency[kTopK].size()), report);
  passes.traced = RunClosedLoop(schedule, classes, limits, kClients, pass_seconds, true, execute);
  SetSpanTiming(report, passes.traced.spans, "core.topk", "core.topk_us", 1e6, "us");
  SetSpanTiming(report, passes.traced.spans, "core.pair", "core.pair_us", 1e6, "us");
  SetSpanTiming(report, passes.traced.spans, "core.single", "core.single_us", 1e6, "us");
  report.Set("driver.trace_overhead_frac",
             TraceOverhead(MeanLatency(passes.untraced), MeanLatency(passes.traced)), "ratio");
  WriteTrace(passes.traced.spans, "queries", options, report);
  return passes;
}

void StampInputs(Report& report, uint64_t graph_digest, uint64_t schedule_digest) {
  report.Stamp("graph_digest", Hex(graph_digest));
  report.Stamp("query_stream_digest", Hex(schedule_digest));
}

void DeclarePerLayerMetrics(Report& report) {
  static const std::pair<const char*, const char*> kTable[] = {
      {"datagen.generate_s", "s"},        {"hin.parse_us", "us"},
      {"core.prepare_s", "s"},            {"core.topk_us.p50", "us"},
      {"core.topk_us.p99", "us"},         {"core.pair_us.p50", "us"},
      {"core.pair_us.p99", "us"},         {"core.single_us.p50", "us"},
      {"core.single_us.p99", "us"},       {"core.bound_exit_frac", "ratio"},
      {"core.compute_s", "s"},            {"matrix.chain_step_self_ms", "ms"},
      {"matrix.spgemm_rows", "count"},    {"matrix.plan_actual_nnz", "count"},
      {"matrix.plan_nnz_ratio", "ratio"}, {"pool.cpu_util", "ratio"},
      {"pool.tasks", "count"},            {"pool.steals", "count"},
      {"cache.hit_frac", "ratio"},        {"cache.fill_ms.p50", "ms"},
      {"cache.fill_ms.p99", "ms"},        {"cache.evictions", "count"},
      {"cache.partial_reuse_frac", "ratio"}, {"store.read_frac", "ratio"},
      {"store.get_ms.p50", "ms"},         {"store.get_ms.p99", "ms"},
      {"store.put_ms.p50", "ms"},         {"store.put_ms.p99", "ms"},
      {"store.demotions", "count"},       {"store.writes", "count"},
      {"store.corrupt_entries", "count"}, {"codec.encode_mb_s", "MB/s"},
      {"codec.decode_mb_s", "MB/s"},      {"service.queue_ms.p50", "ms"},
      {"service.queue_ms.p99", "ms"},     {"service.exec_ms.p50", "ms"},
      {"service.exec_ms.p99", "ms"},      {"service.transport_ms.p50", "ms"},
      {"service.transport_ms.p99", "ms"}, {"service.codec_us", "us"},
      {"service.served_frac", "ratio"},   {"service.rejected", "count"},
      {"service.shed", "count"},          {"service.degraded", "count"},
      {"service.slo_rate_qps", "1/s"},    {"driver.lateness_ms.p99", "ms"},
      {"driver.trace_overhead_frac", "ratio"},
  };
  for (const auto& [name, unit] : kTable) report.Set(name, 0.0, unit, 0);
}

void SetSpanTiming(Report& report, const SpanLog& spans, const std::string& span,
                   const std::string& metric, double scale, const std::string& unit) {
  std::vector<double> durations = spans.Stats(span).durations;
  const Summary s = Summarize(durations);
  report.SetTiming(metric + ".p50", metric + ".p99", s, scale, unit);
}

void WriteTrace(const SpanLog& spans, const std::string& part, const Options& options,
                Report& report) {
  const std::string path =
      options.out_dir + "/trace_" + options.workload + "_" + part + ".jsonl";
  constexpr int64_t kMaxOps = 20000;
  if (spans.Write(path, options.workload, kMaxOps)) {
    report.Note("trace: " + std::to_string(spans.num_spans()) + " spans, first " +
                std::to_string(kMaxOps) + " operations written to " + path);
  } else {
    report.Warn("could not write the trace to " + path);
  }
}

double TraceOverhead(double untraced_mean, double traced_mean) {
  return untraced_mean > 0 ? (traced_mean - untraced_mean) / untraced_mean : 0.0;
}

}  // namespace perfbench
