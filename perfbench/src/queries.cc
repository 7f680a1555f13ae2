// The two closed-loop, in-process query workloads: interactive_80k (warm
// cache, frontier kernels) and adhoc_churn (ad-hoc meta-paths against a
// cache budget far below the working set, over an HPS1 store).
#include <cmath>
#include <map>
#include <memory>
#include <optional>

#include "core/hetesim.h"
#include "core/materialize.h"
#include "hin/digest.h"
#include "store/store.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace wl = hetesim::workload;
using hetesim::MetaPath;
using hetesim::QueryContext;
using hetesim::TraceSpan;

/// Queries generated per stream; the closed loops cycle through it.
constexpr int64_t kStreamLength = 200000;

// ---------------------------------------------------------------------------
// interactive_80k

const std::vector<QueryClass> kInteractiveClasses = {
    {kTopK, "A-P-A", 1.0, 10},
    {kPair, "A-P-A", 1.0, 0},
    {kSingle, "A-P-C-P-A", 1.0, 0},
};
const Limits kInteractiveLimits = {0.001, 0.005, 0.001};

struct InteractiveState {
  std::unique_ptr<hetesim::DblpDataset> data;
  std::shared_ptr<hetesim::PathMatrixCache> cache;
  std::unique_ptr<hetesim::HeteSimEngine> engine;
  PreparedClasses prepared;
  double generate_s = 0;
  double prepare_s = 0;
};

std::unique_ptr<InteractiveState> SetUpInteractive() {
  auto state = std::make_unique<InteractiveState>();
  const Clock::time_point t = Clock::now();
  hetesim::DblpConfig config;
  config.num_papers = 80000;
  config.num_authors = 5000;
  config.seed = kGraphSeed;
  state->data = MakeDblp(config);
  state->generate_s = SecondsSince(t);
  const hetesim::HinGraph& graph = state->data->graph;

  hetesim::HeteSimOptions options;
  options.algo = hetesim::RelevanceAlgo::kFrontier;
  options.num_threads = 1;
  state->cache = std::make_shared<hetesim::PathMatrixCache>();
  state->engine = std::make_unique<hetesim::HeteSimEngine>(graph, options, state->cache);
  state->prepared =
      PrepareClasses(graph, kInteractiveClasses, options, state->cache.get(), &state->prepare_s);
  // Warm the cache: every half the pair and single-source classes touch.
  for (const MetaPath& path : state->prepared.paths) {
    state->cache->GetLeft(graph, path);
    state->cache->GetRight(graph, path);
  }
  return state;
}

// ---------------------------------------------------------------------------
// adhoc_churn

/// Ad-hoc meta-path pool: thirteen paths of length 3 to 6 over A, P, C and
/// T, three of them of odd length. On the adhoc graph their halves range
/// from 0.1 MB to ~12 MB; the odd paths share their paper-side half.
const std::vector<std::string> kAdhocPaths = {
    "A-P-C-P-A", "C-P-T-P-C", "A-P-A-P-A",     "T-P-C-P-T",     "C-P-A-P-C",
    "A-P-T-P-A", "T-P-A-P-T", "A-P-A-P",       "C-P-A-P",       "T-P-A-P",
    "C-P-A-P-A-P-C", "C-P-A-P-T-P-C", "A-P-A-P-A-P-A",
};
const Limits kAdhocLimits = {0.005, 0.1, 0.1};

std::vector<QueryClass> AdhocClasses() {
  // Path popularity is Zipf over the pool (weight rank^-1.5), so a hot set
  // stays cached while the tail churns. (With weight 1/rank only two pair
  // queries in three hit the cache, and the pair median sits on the steep
  // edge of the hit mode, where it jumps with every small change in the
  // hit rate.) Within a path: pair 45%, single-source 30%, top-k 25%.
  std::vector<QueryClass> classes;
  for (size_t r = 0; r < kAdhocPaths.size(); ++r) {
    const double w = std::pow(static_cast<double>(r + 1), -1.5);
    classes.push_back({kPair, kAdhocPaths[r], 0.45 * w, 0});
    classes.push_back({kSingle, kAdhocPaths[r], 0.30 * w, 0});
    classes.push_back({kTopK, kAdhocPaths[r], 0.25 * w, 10});
  }
  return classes;
}

struct AdhocState {
  std::unique_ptr<hetesim::DblpDataset> data;
  std::unique_ptr<TempDir> store_dir;
  std::shared_ptr<hetesim::MatrixStore> store;
  std::shared_ptr<hetesim::PathMatrixCache> cache;
  std::unique_ptr<hetesim::HeteSimEngine> engine;
  PreparedClasses prepared;
  size_t working_set_bytes = 0;
  size_t budget_bytes = 0;
  double generate_s = 0;
  double prepare_s = 0;
};

std::unique_ptr<AdhocState> SetUpAdhoc(const Options& options) {
  auto state = std::make_unique<AdhocState>();
  const Clock::time_point t = Clock::now();
  hetesim::DblpConfig config;
  config.num_papers = 20000;
  config.num_authors = 8000;
  // A flatter productivity curve than the generator default keeps every
  // half of the pool below ~20 MB at this size.
  config.productivity_exponent = 0.6;
  config.seed = kGraphSeed;
  state->data = MakeDblp(config);
  state->generate_s = SecondsSince(t);
  const hetesim::HinGraph& graph = state->data->graph;

  // Working set: every distinct half of the pool, materialized once.
  hetesim::PathMatrixCache scratch;
  std::map<std::string, std::shared_ptr<const hetesim::SparseMatrix>> halves;
  std::vector<std::vector<std::string>> keys_by_path;
  for (const std::string& spec : kAdhocPaths) {
    hetesim::Result<MetaPath> path = MetaPath::Parse(graph.schema(), spec);
    if (!path.ok()) Fatal("MetaPath::Parse(" + spec + "): " + path.status().message());
    const std::string left = hetesim::PathMatrixCache::LeftKey(*path);
    const std::string right = hetesim::PathMatrixCache::RightKey(*path);
    halves[left] = scratch.GetLeft(graph, *path);
    halves[right] = scratch.GetRight(graph, *path);
    keys_by_path.push_back({left, right});
  }
  for (const auto& [key, matrix] : halves) state->working_set_bytes += matrix->ApproxBytes();
  state->budget_bytes = state->working_set_bytes / 4;

  // The store: a fresh directory pre-filled with the halves of every
  // other path of the pool.
  state->store_dir = std::make_unique<TempDir>(options.out_dir, "adhoc_store");
  state->store = OpenStore(state->store_dir->path(), graph);
  for (size_t i = 0; i < keys_by_path.size(); i += 2) {
    for (const std::string& key : keys_by_path[i]) {
      if (state->store->Contains(key)) continue;
      const hetesim::Status put = state->store->Put(key, *halves[key]);
      if (!put.ok()) Fatal("MatrixStore::Put: " + put.message());
    }
  }
  halves.clear();
  scratch.Clear();

  state->cache = std::make_shared<hetesim::PathMatrixCache>();
  state->cache->SetMemoryBudget(std::make_shared<hetesim::MemoryBudget>(state->budget_bytes));
  state->cache->AttachStore(state->store);
  hetesim::HeteSimOptions engine_options;  // the library's default algo
  engine_options.num_threads = 1;
  state->engine = std::make_unique<hetesim::HeteSimEngine>(graph, engine_options, state->cache);
  state->prepared =
      PrepareClasses(graph, AdhocClasses(), engine_options, state->cache.get(), &state->prepare_s);
  return state;
}

}  // namespace

void RunInteractive(const Options& options, Report& report) {
  std::unique_ptr<InteractiveState> state;
  MeasureSetup(report, [&] { state.reset(); }, [&] {
    state = SetUpInteractive();
  });
  const hetesim::HinGraph& graph = state->data->graph;
  const PreparedClasses& prepared = state->prepared;
  const wl::Schedule schedule = MakeSchedule(prepared.classes, prepared.Domains(graph),
                                             options.seed, kStreamLength, /*zipf=*/false);
  StampInputs(report, hetesim::GraphDigest(graph), schedule.digest);

  const QueryExecutor execute = [&](const wl::QuerySpec& spec, hetesim::Trace* trace) {
    const size_t c = static_cast<size_t>(spec.class_id);
    return ExecuteQuery(prepared.classes[c].shape, prepared.paths[c], spec, *state->engine,
                        prepared.searchers[c].get(), trace);
  };
  const QueryPasses passes =
      RunQueryPasses(options, schedule, prepared.classes, kInteractiveLimits, execute, report);

  if (options.trace) {
    report.Set("datagen.generate_s", state->generate_s, "s");
    report.Set("core.prepare_s", state->prepare_s, "s");
    // Self-check: the workload is chosen for warm-cache kernels.
    if (report.Get("cache.hit_frac") < 0.99) {
      report.Warn("interactive_80k: cache.hit_frac below 0.99; the workload no longer runs warm");
    }
    if (passes.before.Delta(passes.after, "hetesim_store_hits_total") +
            passes.before.Delta(passes.after, "hetesim_store_misses_total") >
        0) {
      report.Warn("interactive_80k: store reads after warm-up");
    }
  }
  CheckAnswers(schedule, prepared, *state->engine, 25, "interactive_80k", report);
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
}

void RunAdhocChurn(const Options& options, Report& report) {
  std::unique_ptr<AdhocState> state;
  MeasureSetup(report, [&] { state.reset(); }, [&] {
    state = SetUpAdhoc(options);
  });
  const hetesim::HinGraph& graph = state->data->graph;
  const PreparedClasses& prepared = state->prepared;
  const wl::Schedule schedule = MakeSchedule(prepared.classes, prepared.Domains(graph),
                                             options.seed, kStreamLength, /*zipf=*/true);
  StampInputs(report, hetesim::GraphDigest(graph), schedule.digest);
  report.Note("adhoc_churn: working set " + std::to_string(state->working_set_bytes >> 10) +
              " KiB of halves, cache budget " + std::to_string(state->budget_bytes >> 10) +
              " KiB");

  // The traced replay times Put against a second store, so replayed writes
  // never change the store under the cache.
  TempDir replay_dir(options.out_dir, "adhoc_replay");
  const std::shared_ptr<hetesim::MatrixStore> replay_store = OpenStore(replay_dir.path(), graph);

  const QueryExecutor execute = [&](const wl::QuerySpec& spec, hetesim::Trace* trace) {
    const size_t c = static_cast<size_t>(spec.class_id);
    const QueryClass& cls = prepared.classes[c];
    // Ad-hoc: every query carries its meta-path as text.
    std::optional<MetaPath> path;
    {
      TraceSpan span(trace, "hin.parse");
      hetesim::Result<MetaPath> parsed = MetaPath::Parse(graph.schema(), cls.path);
      if (!parsed.ok()) return false;
      path.emplace(std::move(*parsed));
    }
    if (trace != nullptr && cls.shape != kTopK) {
      // Traced replay: fetch both halves first, so cache fill and the
      // kernel are timed apart (the query below then hits).
      const QueryContext ctx = QueryContext::Background().WithTrace(trace);
      std::shared_ptr<const hetesim::SparseMatrix> left;
      {
        TraceSpan span(trace, "cache.fill");
        hetesim::Result<std::shared_ptr<const hetesim::SparseMatrix>> l =
            state->cache->GetLeft(graph, *path, ctx);
        hetesim::Result<std::shared_ptr<const hetesim::SparseMatrix>> r =
            state->cache->GetRight(graph, *path, ctx);
        if (!l.ok() || !r.ok()) return false;
        left = *l;
      }
      // One query in eight also times the store on its left half: a read
      // of the persisted entry and a write to the replay store.
      if (spec.index % 8 == 0) {
        const std::string key = hetesim::PathMatrixCache::LeftKey(*path);
        if (state->store->Contains(key)) {
          TraceSpan span(trace, "store.get");
          if (!state->store->Get(key).ok()) return false;
        }
        TraceSpan span(trace, "store.put");
        if (!replay_store->Put(key, *left).ok()) return false;
      }
    }
    return ExecuteQuery(cls.shape, *path, spec, *state->engine, prepared.searchers[c].get(),
                        trace);
  };
  const QueryPasses passes =
      RunQueryPasses(options, schedule, prepared.classes, kAdhocLimits, execute, report);
  report.Set("store_mb", static_cast<double>(state->store_dir->Bytes()) / 1e6, "MB");

  if (options.trace) {
    report.Set("datagen.generate_s", state->generate_s, "s");
    report.Set("core.prepare_s", state->prepare_s, "s");
    const SpanLog& spans = passes.traced.spans;
    SetSpanTiming(report, spans, "cache.fill", "cache.fill_ms", 1e3, "ms");
    SetSpanTiming(report, spans, "store.get", "store.get_ms", 1e3, "ms");
    SetSpanTiming(report, spans, "store.put", "store.put_ms", 1e3, "ms");
    std::vector<double> parse = spans.Stats("hin.parse").durations;
    report.Set("hin.parse_us", Summarize(parse).p50 * 1e6, "us",
               static_cast<int64_t>(parse.size()));
    const SpanStats& steps = spans.Stats("chain.step");
    report.Set("matrix.chain_step_self_ms",
               steps.total_self() * 1e3 / static_cast<double>(passes.traced.attempted), "ms",
               static_cast<int64_t>(steps.self_times.size()));
    // Self-check: the workload is chosen for cache misses and store IO.
    if (report.Get("cache.evictions") <= 0) report.Warn("adhoc_churn: no cache evictions");
    if (report.Get("store.demotions") <= 0) report.Warn("adhoc_churn: no store demotions");
    if (report.Get("store.read_frac") <= 0) report.Warn("adhoc_churn: no store reads");
  }
  CheckAnswers(schedule, prepared, *state->engine, 2, "adhoc_churn", report);
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
