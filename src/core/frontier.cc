#include "core/frontier.h"

#include <cmath>
#include <functional>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.h"
#include "core/materialize.h"
#include "matrix/cost_model.h"

namespace hetesim {

namespace {

/// One hop of frontier propagation: `y = x^T * m`, touching only the rows
/// `x` reaches. Contributions to each output coordinate accumulate in
/// ascending input-index order (the outer loop), so the per-coordinate sums
/// are deterministic regardless of hash-map layout; sorting afterwards
/// restores the ascending-index invariant. Entries below
/// `relative_threshold * max_entry` are dropped, their L1 mass added to the
/// frontier's running error bound.
Result<SparseVector> ApplyHop(const SparseVector& x, const SparseMatrix& m,
                              double relative_threshold,
                              const QueryContext& ctx) {
  HETESIM_RETURN_NOT_OK(ctx.CheckAlive());
  // Upper-bound the hop's output support to charge the transient
  // accumulator (hash map entry ~= 2x payload with bucket overhead)
  // against the query's memory budget before allocating.
  size_t out_bound = 0;
  for (Index row : x.indices) {
    out_bound += static_cast<size_t>(m.RowNnz(row));
  }
  out_bound = std::min(out_bound, static_cast<size_t>(m.cols()));
  HETESIM_ASSIGN_OR_RETURN(
      MemoryReservation reservation,
      ctx.Reserve(out_bound * (sizeof(Index) + sizeof(double)) * 2));
  std::unordered_map<Index, double> acc;
  acc.reserve(out_bound);
  // Hops are unbounded work (a hub row can touch the whole target type), so
  // the gather polls at an adaptive stride rather than only at hop entry.
  PollStrideController poller(/*fixed_stride=*/0);
  for (size_t i = 0; i < x.indices.size(); ++i) {
    if (i > 0 && poller.ShouldPoll(i)) {
      HETESIM_RETURN_NOT_OK(ctx.CheckAlive());
    }
    const Index row = x.indices[i];
    const double xv = x.values[i];
    const auto cols = m.RowIndices(row);
    const auto vals = m.RowValues(row);
    for (size_t j = 0; j < cols.size(); ++j) {
      acc[cols[j]] += xv * vals[j];
    }
  }
  std::vector<std::pair<Index, double>> entries;
  entries.reserve(acc.size());
  for (const auto& entry : acc) {
    if (entry.second != 0.0) entries.push_back(entry);
  }
  std::sort(entries.begin(), entries.end());
  double max_abs = 0.0;
  for (const auto& [col, value] : entries) {
    max_abs = std::max(max_abs, std::abs(value));
  }
  const double cutoff =
      relative_threshold > 0.0 ? relative_threshold * max_abs : 0.0;
  SparseVector y;
  y.dropped_mass = x.dropped_mass;
  y.indices.reserve(entries.size());
  y.values.reserve(entries.size());
  // Bounded pass over the already-reserved accumulator; the gather loop
  // above is where the hop's unbounded work (and polling) lives.
  for (const auto& [col, value] : entries) {  // hetesim-lint: allow(cancel-poll)
    if (cutoff > 0.0 && std::abs(value) < cutoff) {
      y.dropped_mass += std::abs(value);
      continue;
    }
    y.indices.push_back(col);
    y.values.push_back(value);
  }
  return y;
}

/// Row-level cost of propagating one frontier through `chain`: expected
/// multiply-adds, tracking the expected frontier support hop by hop (one
/// source row in, `avg row fill` fan-out per reached row, capped by the hop's
/// column count). Deterministic — shapes and fills only, no timing.
double RowPropagationFlops(const std::vector<MatrixEstimate>& chain) {
  double support = 1.0;
  double flops = 0.0;
  for (const MatrixEstimate& est : chain) {
    if (est.rows <= 0) break;
    const double avg_row = est.nnz / static_cast<double>(est.rows);
    flops += support * avg_row;
    support = std::min(static_cast<double>(est.cols), support * avg_row);
  }
  return flops;
}

/// The k-th largest valid lower bound among the touched candidates.
/// Requires `touched.size() >= k >= 1`. Partial dots only ever grow (all
/// entries are non-negative), so partial/(nu*nt) is a monotone lower bound
/// on the final normalized score.
double KthLowerBound(const std::vector<Index>& touched,
                     const std::vector<double>& partial,
                     const std::vector<double>& right_norms, bool normalized,
                     double nu, size_t k, std::vector<double>& scratch) {
  scratch.clear();
  scratch.reserve(touched.size());
  for (Index t : touched) {
    double lb = partial[static_cast<size_t>(t)];
    if (normalized) {
      const double nt = right_norms[static_cast<size_t>(t)];
      lb = nt != 0.0 ? lb / (nu * nt) : 0.0;
    }
    scratch.push_back(lb);
  }
  std::nth_element(scratch.begin(),
                   scratch.begin() + static_cast<ptrdiff_t>(k - 1),
                   scratch.end(), std::greater<double>());
  return scratch[k - 1];
}

/// Exact dot of sparse right row (`cols`, `vals`) against frontier `u`, both
/// ascending — the same term order as the pruned path's ascending-middle
/// accumulation, so finished frontier scores match it bitwise.
double ExactRowDot(std::span<const Index> cols, std::span<const double> vals,
                   const SparseVector& u) {
  double sum = 0.0;
  size_t a = 0;
  size_t b = 0;
  while (a < cols.size() && b < u.indices.size()) {
    if (cols[a] < u.indices[b]) {
      ++a;
    } else if (cols[a] > u.indices[b]) {
      ++b;
    } else {
      sum += u.values[b] * vals[a];
      ++a;
      ++b;
    }
  }
  return sum;
}

}  // namespace

Result<SparseVector> PropagateFrontier(Index source, const FrontierChain& chain,
                                       double relative_threshold,
                                       const QueryContext& ctx) {
  const SparseMatrix* first = chain.head != nullptr ? chain.head.get()
                              : (chain.steps != nullptr && !chain.steps->empty())
                                  ? &(*chain.steps)[0]
                                  : nullptr;
  if (first != nullptr && (source < 0 || source >= first->rows())) {
    return Status::OutOfRange("source id out of range");
  }
  if (HETESIM_FAULT_POINT("frontier.alloc")) {
    return Status::ResourceExhausted(
        "injected allocation failure at frontier.alloc");
  }
  SparseVector x;
  x.indices.push_back(source);
  x.values.push_back(1.0);
  size_t next_step = 0;
  if (chain.head != nullptr) {
    HETESIM_ASSIGN_OR_RETURN(
        x, ApplyHop(x, *chain.head, relative_threshold, ctx));
    next_step = chain.head_steps;
  }
  if (chain.steps != nullptr) {
    for (size_t s = next_step; s < chain.steps->size(); ++s) {
      HETESIM_ASSIGN_OR_RETURN(
          x, ApplyHop(x, (*chain.steps)[s], relative_threshold, ctx));
    }
  }
  return x;
}

double SparseDot(const SparseVector& a, const SparseVector& b) {
  double sum = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.indices.size() && j < b.indices.size()) {
    if (a.indices[i] < b.indices[j]) {
      ++i;
    } else if (a.indices[i] > b.indices[j]) {
      ++j;
    } else {
      sum += a.values[i] * b.values[j];
      ++i;
      ++j;
    }
  }
  return sum;
}

double SparseNorm2(const SparseVector& a) {
  double sum = 0.0;
  for (double v : a.values) sum += v * v;
  return std::sqrt(sum);
}

FrontierChain PlanFrontierChain(const std::vector<SparseMatrix>& steps,
                                const MetaPath& path, bool left_side,
                                PathMatrixCache* cache) {
  FrontierChain plan;
  plan.steps = &steps;
  if (cache == nullptr || steps.empty()) return plan;
  std::vector<PathMatrixCache::PartialHit> hits =
      cache->ProbePartials(path, left_side, static_cast<int>(steps.size()));
  if (hits.empty()) return plan;
  std::vector<MatrixEstimate> estimates;
  estimates.reserve(steps.size());
  for (const SparseMatrix& m : steps) estimates.push_back(EstimateOf(m));
  double best_flops = RowPropagationFlops(estimates);
  const PathMatrixCache::PartialHit* winner = nullptr;
  for (const PathMatrixCache::PartialHit& hit : hits) {
    if (hit.matrix == nullptr || hit.steps_covered < 1 ||
        static_cast<size_t>(hit.steps_covered) > steps.size()) {
      continue;
    }
    std::vector<MatrixEstimate> candidate;
    candidate.reserve(steps.size() - static_cast<size_t>(hit.steps_covered) +
                      1);
    candidate.push_back(EstimateOf(*hit.matrix));
    for (size_t s = static_cast<size_t>(hit.steps_covered); s < steps.size();
         ++s) {
      candidate.push_back(estimates[s]);
    }
    const double flops = RowPropagationFlops(candidate);
    if (flops < best_flops) {
      best_flops = flops;
      winner = &hit;
    }
  }
  if (winner != nullptr) {
    plan.head = winner->matrix;
    plan.head_steps = static_cast<size_t>(winner->steps_covered);
    plan.used_cached_partial = true;
    cache->RecordPartialReuse(left_side, winner->matrix->ApproxBytes());
  }
  return plan;
}

Result<TopKResult> FrontierExecutor::TopK(Index source, int k,
                                          const QueryContext& ctx) const {
  TopKResult result;
  // Propagation polls the context per hop; deadline/cancellation there maps
  // to the searcher's best-effort contract (an empty truncated ranking, not
  // an error). Real failures — budget exhaustion, injected faults, range
  // errors — still propagate.
  Result<SparseVector> propagated =
      PropagateFrontier(source, left_, options_.truncation, ctx);
  if (!propagated.ok()) {
    const Status status = propagated.status();
    if (status.IsDeadlineExceeded() || status.IsCancelled()) {
      result.truncated = true;
      return result;
    }
    return status;
  }
  SparseVector u = *std::move(propagated);
  result.error_bound = u.dropped_mass;
  const size_t support = u.nnz();
  // For the frontier algo the "middle" counters describe frontier entries,
  // the unit of sweep work, not the dense middle-type size.
  result.middle_total = static_cast<Index>(support);
  const double nu = SparseNorm2(u);
  if (support == 0 || nu == 0.0) {
    result.middle_processed = result.middle_total;
    return result;
  }

  // Phase 1: fold middle entries in descending-mass order, tracking per-
  // candidate partial dots. tail_sumsq[j] is the squared L2 mass of the
  // entries not yet folded after position j-1; it drives the unseen-
  // candidate upper bound (see the class comment for the derivation).
  std::vector<size_t> order(support);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&u](size_t a, size_t b) {
    return u.values[a] != u.values[b] ? u.values[a] > u.values[b]
                                      : u.indices[a] < u.indices[b];
  });
  std::vector<double> tail_sumsq(support + 1, 0.0);
  for (size_t j = support; j-- > 0;) {
    const double v = u.values[order[j]];
    tail_sumsq[j] = tail_sumsq[j + 1] + v * v;
  }

  const size_t num_targets = static_cast<size_t>(right_->rows());
  HETESIM_ASSIGN_OR_RETURN(
      MemoryReservation sweep_reservation,
      ctx.Reserve(num_targets * (sizeof(double) + sizeof(Index) / 4)));
  std::vector<double> partial(num_targets, 0.0);
  std::vector<Index> touched;
  std::vector<double> lower_scratch;
  PollStrideController poller(options_.topk_poll_stride);
  const size_t keep_k = static_cast<size_t>(std::max(k, 0));
  const double bound_scale =
      options_.normalized ? 1.0 / nu : max_right_norm_;
  // Re-deriving the k-th lower bound costs O(touched); do it at a stride.
  // Between recomputations the last value stays a valid (stale) lower
  // bound, because partial dots only grow. The stride shrinks with the
  // frontier so small middles (a handful of conferences) still get enough
  // checks to ever exit early; 64 caps the cost on wide frontiers.
  constexpr size_t kBoundCheckStride = 64;
  const size_t bound_stride =
      std::min(kBoundCheckStride, std::max<size_t>(1, support / 8));
  double last_kth_lower = -1.0;
  size_t processed = support;
  for (size_t j = 0; j < support; ++j) {
    if (j > 0 && poller.ShouldPoll(j) && ctx.Expired()) {
      result.truncated = true;
      processed = j;
      break;
    }
    const size_t e = order[j];
    const auto targets = right_transpose_->RowIndices(u.indices[e]);
    const auto weights = right_transpose_->RowValues(u.indices[e]);
    const double um = u.values[e];
    for (size_t i = 0; i < targets.size(); ++i) {
      double& slot = partial[static_cast<size_t>(targets[i])];
      if (slot == 0.0) touched.push_back(targets[i]);
      slot += um * weights[i];
    }
    // A bound exit on the final entry would be a no-op that still pays the
    // rescore pass, so the last fold always completes the sweep naturally.
    if (keep_k > 0 && touched.size() >= keep_k && j + 1 < support) {
      const double unseen = std::sqrt(tail_sumsq[j + 1]) * bound_scale;
      if (last_kth_lower <= unseen && j % bound_stride == bound_stride - 1) {
        last_kth_lower =
            KthLowerBound(touched, partial, *right_norms_,
                          options_.normalized, nu, keep_k, lower_scratch);
      }
      // Strict: ties (which the ranking breaks by id) must keep sweeping.
      if (last_kth_lower > unseen) {
        result.bound_exit = true;
        processed = j + 1;
        break;
      }
    }
  }
  result.middle_processed = static_cast<Index>(processed);
  result.candidates_examined = static_cast<Index>(touched.size());

  // Phase 2: exact scores. After a full sweep the partials already are the
  // exact dots, but a bound exit froze them mid-accumulation — rescore every
  // touched candidate against the full frontier. A deadline truncation
  // instead reports the partial dots as-is: valid lower bounds, the same
  // contract as the pruned path.
  std::vector<Scored> candidates;
  candidates.reserve(touched.size());
  bool rescore = result.bound_exit;
  // Rescoring is itself O(touched * nnz), so it keeps polling on the phase-1
  // controller (the item counter continues past `processed` to keep the
  // stride monotonic). On expiry the remaining candidates fall back to
  // their partial dots — the same valid-lower-bound contract as a phase-1
  // deadline truncation.
  size_t rescore_item = processed;
  for (Index t : touched) {
    if (rescore && poller.ShouldPoll(rescore_item++) && ctx.Expired()) {
      result.truncated = true;
      rescore = false;
    }
    double score =
        rescore ? ExactRowDot(right_->RowIndices(t), right_->RowValues(t), u)
                : partial[static_cast<size_t>(t)];
    if (options_.normalized) {
      const double nt = (*right_norms_)[static_cast<size_t>(t)];
      if (nt != 0.0) score /= nu * nt;
    }
    if (score != 0.0) candidates.push_back({t, score});
  }
  auto by_score_desc = [](const Scored& a, const Scored& b) {
    return a.score != b.score ? a.score > b.score : a.id < b.id;
  };
  const size_t keep = std::min(keep_k, candidates.size());
  std::partial_sort(candidates.begin(),
                    candidates.begin() + static_cast<ptrdiff_t>(keep),
                    candidates.end(), by_score_desc);
  candidates.resize(keep);
  result.items = std::move(candidates);
  return result;
}

}  // namespace hetesim
