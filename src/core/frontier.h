#ifndef HETESIM_CORE_FRONTIER_H_
#define HETESIM_CORE_FRONTIER_H_

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "common/context.h"
#include "common/result.h"
#include "core/topk.h"
#include "hin/metapath.h"
#include "matrix/sparse.h"

namespace hetesim {

class PathMatrixCache;  // materialize.h

/// \file
/// Frontier execution: the single-source fast path (DESIGN.md §14).
///
/// Instead of materializing whole reachable-probability matrices, a query
/// propagates one *sparse* row vector from the source end of the decomposed
/// path (and, for pair queries, one from the target end): each hop is a
/// vector×CSR product over only the reached rows, optionally dropping mass
/// below a relative threshold with a tracked error bound (the paper's §4.6
/// pruning discussion made concrete). Top-k queries then sweep the middle
/// objects in descending-mass order, maintaining a monotone upper bound on
/// every not-yet-touched candidate, and stop as soon as the k-th best lower
/// bound provably beats that bound — the TA/NRA-style early exit.

/// Adaptive deadline/cancellation poll pacing for item-granular loops.
///
/// The historical top-k loop polled its context every fixed 1024 items,
/// which is too rare for expensive items (deadline overshoot) and
/// needlessly frequent for cheap ones. This controller measures the elapsed
/// time between polls and re-derives the stride from the observed per-item
/// cost, targeting ~25us between polls, clamped to [32, 16384]. Construct
/// with `fixed_stride > 0` (e.g. `HeteSimOptions::topk_poll_stride`) to pin
/// the stride instead — 1024 reproduces the historical behavior.
class PollStrideController {
 public:
  static constexpr size_t kInitialStride = 64;
  static constexpr size_t kMinStride = 32;
  static constexpr size_t kMaxStride = 16384;
  /// The historical fixed stride, kept as the fallback-flag value.
  static constexpr int kLegacyFixedStride = 1024;

  explicit PollStrideController(int fixed_stride)
      : fixed_(fixed_stride > 0),
        stride_(fixed_ ? static_cast<size_t>(fixed_stride) : kInitialStride),
        next_(stride_),
        last_poll_(std::chrono::steady_clock::now()) {}

  /// True when `item` crosses the next poll point. The caller then checks
  /// its context; this call re-paces the stride from the measured cost.
  bool ShouldPoll(size_t item) {
    if (item < next_) return false;
    const auto now = std::chrono::steady_clock::now();
    if (!fixed_) {
      const double elapsed =
          std::chrono::duration<double>(now - last_poll_).count();
      const double per_item =
          elapsed / static_cast<double>(std::max<size_t>(stride_, 1));
      if (per_item > 0.0) {
        const double want = kTargetPollSeconds / per_item;
        stride_ = static_cast<size_t>(
            std::clamp(want, static_cast<double>(kMinStride),
                       static_cast<double>(kMaxStride)));
      } else {
        // Clock too coarse to see the stride: widen geometrically.
        stride_ = std::min(stride_ * 2, kMaxStride);
      }
    }
    last_poll_ = now;
    next_ = item + stride_;
    return true;
  }

  size_t stride() const { return stride_; }

 private:
  static constexpr double kTargetPollSeconds = 25e-6;

  bool fixed_;
  size_t stride_;
  size_t next_;
  std::chrono::steady_clock::time_point last_poll_;
};

/// A sparse non-negative row vector: parallel (indices, values) with
/// strictly ascending indices, plus the L1 mass discarded by per-hop
/// truncation (0 when the propagation ran exact).
struct SparseVector {
  std::vector<Index> indices;
  std::vector<double> values;
  double dropped_mass = 0.0;

  size_t nnz() const { return indices.size(); }
};

/// One half of a frontier execution plan: the per-step transition chain,
/// optionally with the first `head_steps` transitions replaced by an
/// already-materialized cached partial product (ad-hoc meta-path reuse).
struct FrontierChain {
  /// The half's per-step transitions (non-owning; must outlive the chain).
  const std::vector<SparseMatrix>* steps = nullptr;
  /// Cached product of `(*steps)[0..head_steps)`, or null for no reuse.
  std::shared_ptr<const SparseMatrix> head;
  size_t head_steps = 0;
  /// True when `head` came from a `PathMatrixCache` partial probe.
  bool used_cached_partial = false;
};

/// Plans the cheapest frontier chain for one half of `path`: probes `cache`
/// (when non-null) for materialized prefix partials of the half, scores
/// each candidate plan with the cost model's single-row propagation flops
/// estimate, and folds the winning partial in as the chain head. Records
/// partial-hit stats on the cache. With no cache (or no profitable hit)
/// the plain per-step chain is returned.
FrontierChain PlanFrontierChain(const std::vector<SparseMatrix>& steps,
                                const MetaPath& path, bool left_side,
                                PathMatrixCache* cache);

/// Propagates the indicator vector of `source` through `chain`, keeping the
/// frontier sparse. `relative_threshold` in [0, 1) drops entries below
/// `threshold * max_entry` after each hop, accumulating the dropped L1 mass
/// into the result's `dropped_mass` (0 = exact). Polls `ctx` once per hop
/// and charges the per-hop accumulator against its memory budget. Fails
/// with `ResourceExhausted` at the `frontier.alloc` fault point.
[[nodiscard]] Result<SparseVector> PropagateFrontier(
    Index source, const FrontierChain& chain, double relative_threshold,
    const QueryContext& ctx);

/// Dot product of two sorted sparse vectors (two-pointer merge, ascending
/// index order — the same term order as the dense accumulation).
double SparseDot(const SparseVector& a, const SparseVector& b);

/// Euclidean norm of a sparse vector.
double SparseNorm2(const SparseVector& a);

/// \brief Single-source top-k executor over a prepared right half.
///
/// A lightweight non-owning view assembled per query (all referenced state
/// must outlive it — `TopKSearcher` builds one on the stack from its own
/// members). The query runs in two phases:
///
///  1. *Sweep.* Propagate the source frontier `u`, order its middle entries
///     by descending mass, and fold them into per-candidate partial dots
///     through the inverted index. After entry `j`, any candidate touched
///     only by the remaining tail satisfies (Cauchy–Schwarz)
///     `score <= ||u_tail||/||u||` (normalized; the per-candidate norm
///     cancels) or `score <= ||u_tail|| * max_t ||r_t||` (unnormalized) —
///     a monotone non-increasing upper bound. Every touched candidate's
///     partial (normalized) dot is a valid lower bound because all entries
///     are non-negative. When the k-th best lower bound strictly exceeds
///     the unseen bound, no unseen candidate can enter the top-k: the
///     candidate set is frozen and the sweep stops (`bound_exit`).
///  2. *Rescore.* Each frozen candidate gets its exact score by merging its
///     right row against `u` in ascending middle order — the same term
///     order as the pruned path, so finished queries match it bitwise.
///
/// Deadline/cancellation mid-sweep returns the partial ranking with
/// `truncated = true` (the searcher's documented best-effort contract).
class FrontierExecutor {
 public:
  FrontierExecutor(FrontierChain left, const SparseMatrix* right,
                   const SparseMatrix* right_transpose,
                   const std::vector<double>* right_norms,
                   double max_right_norm, const HeteSimOptions& options)
      : left_(std::move(left)),
        right_(right),
        right_transpose_(right_transpose),
        right_norms_(right_norms),
        max_right_norm_(max_right_norm),
        options_(options) {}

  [[nodiscard]] Result<TopKResult> TopK(Index source, int k,
                                        const QueryContext& ctx) const;

 private:
  FrontierChain left_;
  const SparseMatrix* right_;            // |targets| x |middle|
  const SparseMatrix* right_transpose_;  // |middle| x |targets|
  const std::vector<double>* right_norms_;
  double max_right_norm_;
  const HeteSimOptions& options_;
};

}  // namespace hetesim

#endif  // HETESIM_CORE_FRONTIER_H_
