// offline_batch: the paper's offline precomputation (Section 4.6). Full
// relevance matrices for a fixed path list are computed with intra-call
// parallelism, their halves are written to a fresh HPS1 store, and the
// reopened store is read back. Online queries are then served by an
// engine whose cache sits on the reopened store. The batch is part of the
// set-up, so `setup_s` carries it; `batch_s` and its per-layer split are
// reported beside it.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>

#include "answers.h"
#include "common/context.h"
#include "core/hetesim.h"
#include "core/materialize.h"
#include "hin/digest.h"
#include "store/codec.h"
#include "store/store.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace wl = hetesim::workload;
using hetesim::MetaPath;
using hetesim::QueryContext;

constexpr int64_t kStreamLength = 200000;

/// Paths whose full relevance matrices the batch materializes.
const std::vector<std::string> kBatchPaths = {
    "A-P-C-P-A", "A-P-T-P-A", "A-P-A-P-A", "C-P-A-P-C",
    "C-P-T-P-C", "T-P-A-P-T", "T-P-C-P-T", "C-P-A-P-A-P-C",
};

/// Online classes, served from the store the batch wrote.
const std::vector<QueryClass> kOnlineClasses = {
    {kTopK, "A-P-T-P-A", 1.0, 10},
    {kPair, "C-P-A-P-A-P-C", 1.0, 0},
    {kSingle, "A-P-C-P-A", 1.0, 0},
};
const Limits kOnlineLimits = {0.005, 0.001, 0.005};

/// Timings of one batch. Traced batches also keep their spans.
struct Batch {
  double compute_s = 0;
  double cpu_util = 0;
  double batch_s = 0;
  std::vector<double> put_s;
  std::vector<double> get_s;
  uint64_t store_bytes = 0;
  bool readback_bitwise = true;
  std::string readback_failure;
  SpanLog spans;
};

bool BitwiseEqual(const hetesim::SparseMatrix& a, const hetesim::SparseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() && a.row_ptr() == b.row_ptr() &&
         a.col_idx() == b.col_idx() && a.values().size() == b.values().size() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(double)) == 0;
}

/// Compute every batch path at nproc threads, Put each distinct half into
/// the (empty) store at `dir`, reopen it and Get every half back.
Batch RunBatch(const hetesim::HinGraph& graph, const std::string& dir, bool traced,
               std::vector<std::vector<double>>* sample_rows) {
  Batch batch;
  const Clock::time_point start = Clock::now();
  hetesim::HeteSimOptions options;
  options.num_threads = NumCpus();
  auto cache = std::make_shared<hetesim::PathMatrixCache>();
  const hetesim::HeteSimEngine engine(graph, options, cache);
  std::vector<MetaPath> paths;
  for (const std::string& spec : kBatchPaths) {
    hetesim::Result<MetaPath> path = MetaPath::Parse(graph.schema(), spec);
    if (!path.ok()) Fatal("MetaPath::Parse(" + spec + "): " + path.status().message());
    paths.push_back(std::move(*path));
  }

  const double cpu_before = ProcessCpuSeconds();
  for (size_t i = 0; i < paths.size(); ++i) {
    hetesim::Trace trace;
    {
      hetesim::TraceSpan span(traced ? &trace : nullptr, "core.compute");
      const QueryContext ctx = traced ? QueryContext::Background().WithTrace(&trace)
                                      : QueryContext::Background();
      hetesim::Result<hetesim::DenseMatrix> m = engine.Compute(paths[i], ctx);
      if (!m.ok()) Fatal("HeteSimEngine::Compute: " + m.status().message());
      if (sample_rows != nullptr) {
        sample_rows->emplace_back(m->RowData(0), m->RowData(0) + m->cols());
      }
    }
    if (traced) batch.spans.Absorb(trace, static_cast<int64_t>(i));
  }
  batch.compute_s = SecondsSince(start);
  batch.cpu_util = (ProcessCpuSeconds() - cpu_before) /
                   (batch.compute_s * static_cast<double>(options.num_threads));

  // The distinct halves the batch materialized.
  std::vector<std::pair<std::string, std::shared_ptr<const hetesim::SparseMatrix>>> halves;
  std::set<std::string> seen;
  for (const MetaPath& path : paths) {
    const std::string left = hetesim::PathMatrixCache::LeftKey(path);
    const std::string right = hetesim::PathMatrixCache::RightKey(path);
    if (seen.insert(left).second) halves.emplace_back(left, cache->GetLeft(graph, path));
    if (seen.insert(right).second) halves.emplace_back(right, cache->GetRight(graph, path));
  }

  {
    const std::shared_ptr<hetesim::MatrixStore> store = OpenStore(dir, graph);
    for (const auto& [key, matrix] : halves) {
      hetesim::Trace trace;
      const Clock::time_point t = Clock::now();
      const hetesim::Status put = [&] {
        hetesim::TraceSpan span(traced ? &trace : nullptr, "store.put");
        return store->Put(key, *matrix);
      }();
      batch.put_s.push_back(SecondsSince(t));
      if (!put.ok()) Fatal("MatrixStore::Put: " + put.message());
      if (traced) batch.spans.Absorb(trace, static_cast<int64_t>(paths.size() + batch.put_s.size()));
    }
    batch.store_bytes = store->stats().bytes;
  }
  const std::shared_ptr<hetesim::MatrixStore> reopened = OpenStore(dir, graph);
  for (const auto& [key, matrix] : halves) {
    hetesim::Trace trace;
    const Clock::time_point t = Clock::now();
    const hetesim::Result<hetesim::SparseMatrix> got = [&] {
      hetesim::TraceSpan span(traced ? &trace : nullptr, "store.get");
      return reopened->Get(key);
    }();
    batch.get_s.push_back(SecondsSince(t));
    if (traced) {
      batch.spans.Absorb(trace, static_cast<int64_t>(paths.size() + halves.size() +
                                                     batch.get_s.size()));
    }
    if (!got.ok() || !BitwiseEqual(*got, *matrix)) {
      batch.readback_bitwise = false;
      if (batch.readback_failure.empty()) batch.readback_failure = key;
    }
  }
  batch.batch_s = SecondsSince(start);
  return batch;
}

struct OfflineState {
  std::unique_ptr<hetesim::DblpDataset> data;
  std::unique_ptr<TempDir> store_dir;
  Batch batch;
  std::vector<std::vector<double>> sample_rows;  // row 0 of each computed matrix
  std::shared_ptr<hetesim::PathMatrixCache> cache;
  std::unique_ptr<hetesim::HeteSimEngine> engine;
  PreparedClasses prepared;
  double generate_s = 0;
};

hetesim::DblpConfig OfflineGraph() {
  hetesim::DblpConfig config;
  config.num_papers = 40000;
  config.num_authors = 4000;
  config.productivity_exponent = 0.6;
  config.seed = kGraphSeed;
  return config;
}

std::unique_ptr<OfflineState> SetUpOffline(const Options& options) {
  auto state = std::make_unique<OfflineState>();
  const Clock::time_point t = Clock::now();
  state->data = MakeDblp(OfflineGraph());
  state->generate_s = SecondsSince(t);
  const hetesim::HinGraph& graph = state->data->graph;
  state->store_dir = std::make_unique<TempDir>(options.out_dir, "offline_store");
  state->batch = RunBatch(graph, state->store_dir->path(), false, &state->sample_rows);

  // Online serving: a cold cache over the reopened store.
  state->cache = std::make_shared<hetesim::PathMatrixCache>();
  state->cache->AttachStore(OpenStore(state->store_dir->path(), graph));
  hetesim::HeteSimOptions engine_options;  // the library's default algo
  engine_options.num_threads = 1;
  state->engine = std::make_unique<hetesim::HeteSimEngine>(graph, engine_options, state->cache);
  state->prepared =
      PrepareClasses(graph, kOnlineClasses, engine_options, state->cache.get(), nullptr);
  return state;
}

}  // namespace

void RunOfflineBatch(const Options& options, Report& report) {
  std::unique_ptr<OfflineState> state;
  std::vector<double> batch_times;
  MeasureSetup(report, [&] { state.reset(); }, [&] {
    state = SetUpOffline(options);
    batch_times.push_back(state->batch.batch_s);
  });
  report.Set("batch_s", Median(batch_times), "s", static_cast<int64_t>(batch_times.size()));
  report.Set("store_mb", static_cast<double>(state->batch.store_bytes) / 1e6, "MB");
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
  RunQueryPasses(options, schedule, prepared.classes, kOnlineLimits, execute, report);

  if (options.trace) {
    report.Set("datagen.generate_s", state->generate_s, "s");
    // One more batch, traced, for the per-layer split of the set-up batch.
    TempDir traced_dir(options.out_dir, "offline_traced");
    const CounterSnapshot before = CounterSnapshot::Take();
    Batch traced = RunBatch(graph, traced_dir.path(), true, nullptr);
    const CounterSnapshot after = CounterSnapshot::Take();
    report.Set("core.compute_s", traced.compute_s, "s", static_cast<int64_t>(kBatchPaths.size()));
    report.Set("pool.cpu_util", traced.cpu_util, "ratio");
    report.Set("pool.tasks", before.Delta(after, "hetesim_pool_tasks_total"), "count");
    report.Set("pool.steals", before.Delta(after, "hetesim_pool_steals_total"), "count");
    ReportMatrixDeltas(before, after, report);
    const SpanStats& steps = traced.spans.Stats("chain.step");
    report.Set("matrix.chain_step_self_ms", steps.total_self() * 1e3, "ms",
               static_cast<int64_t>(steps.self_times.size()));
    report.SetTiming("store.put_ms.p50", "store.put_ms.p99", Summarize(traced.put_s), 1e3, "ms");
    report.SetTiming("store.get_ms.p50", "store.get_ms.p99", Summarize(traced.get_s), 1e3, "ms");
    report.Set("store.writes", before.Delta(after, "hetesim_store_writes_total"), "count");
    report.Set("store.corrupt_entries", before.Delta(after, "hetesim_store_corrupt_entries_total"),
               "count");
    // The HPS1 codec alone, on the batch's halves.
    double raw_bytes = 0, encoded_bytes = 0, encode_s = 0, decode_s = 0;
    auto cache = std::make_shared<hetesim::PathMatrixCache>();
    for (const std::string& spec : kBatchPaths) {
      hetesim::Result<MetaPath> path = MetaPath::Parse(graph.schema(), spec);
      if (!path.ok()) Fatal("MetaPath::Parse: " + path.status().message());
      for (const auto& half : {cache->GetLeft(graph, *path), cache->GetRight(graph, *path)}) {
        std::string bytes;
        Clock::time_point t = Clock::now();
        if (!hetesim::EncodeStoreEntry(*half, hetesim::StoreCodec::kLossless, &bytes).ok()) {
          Fatal("EncodeStoreEntry failed");
        }
        encode_s += SecondsSince(t);
        t = Clock::now();
        if (!hetesim::DecodeStoreEntry(bytes).ok()) Fatal("DecodeStoreEntry failed");
        decode_s += SecondsSince(t);
        raw_bytes += static_cast<double>(half->ApproxBytes());
        encoded_bytes += static_cast<double>(bytes.size());
      }
    }
    report.Set("codec.encode_mb_s", raw_bytes / 1e6 / encode_s, "MB/s");
    report.Set("codec.decode_mb_s", encoded_bytes / 1e6 / decode_s, "MB/s");
    // The batch's own tracing overhead replaces the query pass's: the
    // engine and chain.step spans are recorded in the batch.
    report.Set("driver.trace_overhead_frac", TraceOverhead(Median(batch_times), traced.batch_s),
               "ratio");
    WriteTrace(traced.spans, "batch", options, report);
    // Self-check: the workload is chosen for intra-call parallelism.
    if (report.Get("pool.tasks") <= 0) report.Warn("offline_batch: no thread-pool tasks ran");
  }

  // Answer checks, outside the timed window: the readback is bitwise
  // equal to what was written, the batch's matrices agree with the
  // oracle, and the online answers too.
  report.Check(state->batch.readback_bitwise,
               "offline_batch: store readback bitwise equal to the computed halves" +
                   (state->batch.readback_failure.empty()
                        ? std::string()
                        : "; first difference: " + state->batch.readback_failure));
  hetesim::HeteSimOptions oracle_options;
  oracle_options.algo = hetesim::RelevanceAlgo::kExhaustive;
  const hetesim::HeteSimEngine oracle(graph, oracle_options);
  bool rows_ok = true;
  for (size_t i = 0; i < kBatchPaths.size(); ++i) {
    hetesim::Result<MetaPath> path = MetaPath::Parse(graph.schema(), kBatchPaths[i]);
    if (!path.ok()) Fatal("MetaPath::Parse: " + path.status().message());
    hetesim::Result<std::vector<double>> want = oracle.ComputeSingleSource(*path, 0);
    if (!want.ok() || want->size() != state->sample_rows[i].size()) {
      rows_ok = false;
      continue;
    }
    for (size_t j = 0; j < want->size(); ++j) {
      if (!(std::abs((*want)[j] - state->sample_rows[i][j]) <= kAnswerTolerance)) rows_ok = false;
    }
  }
  report.Check(rows_ok, "offline_batch: row 0 of every computed matrix matches the oracle");
  CheckAnswers(schedule, prepared, *state->engine, 25, "offline_batch", report);
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
