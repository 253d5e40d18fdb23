// The unified pattern-search engine: one top-down driver over the
// search tree (Definition 4.1) shared by every detection algorithm.
//
// Three ideas collapse the previously duplicated DFS loops into this
// layer:
//
//  1. Cursor-based incremental counting. The driver walks the tree with
//     a PatternCursor that materializes the parent's intersection
//     bitset, so evaluating a child costs one fused AND+popcount pass
//     against a single (attribute, value) bitset — not |p| full
//     intersections per node (see index/pattern_cursor.h).
//
//  2. Inlined policies. Bound evaluation and reporting semantics are
//     template parameters (any callable / visitor struct), so the hot
//     loop has no type-erased std::function dispatch.
//
//  3. Shard-and-merge parallelism with a determinism rule. The root's
//     children (first-predicate branches) own disjoint subtrees; each
//     branch is searched with its OWN visitor instance and cursor, and
//     the per-branch states are merged in fixed branch order after all
//     workers join. Because per-branch work is a pure function of the
//     index and the merge order never depends on thread scheduling, a
//     run with N threads is bit-identical to a sequential run — the
//     sequential path executes the very same branch/merge sequence.
//     Per-worker DetectionStats are merged on join, never shared.
//
// Result delivery: every detector fills its DetectionResult through
// DetectPerK below, one finalized violation set per k.
#ifndef FAIRTOPK_DETECT_ENGINE_SEARCH_DRIVER_H_
#define FAIRTOPK_DETECT_ENGINE_SEARCH_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "detect/detection_result.h"
#include "index/bitmap_index.h"
#include "index/pattern_cursor.h"
#include "pattern/pattern.h"
#include "pattern/result_set.h"

namespace fairtopk::engine {

/// Knobs of one top-down search. `num_threads` follows
/// DetectionConfig::num_threads: <= 1 sequential, 0 = hardware
/// concurrency.
struct SearchParams {
  int size_threshold = 1;
  size_t k = 1;
  int num_threads = 1;
};

/// A first-predicate branch of the search tree: the subtree of patterns
/// whose lowest-index predicate is (attr = value). Branches partition
/// the non-empty patterns, which makes them the sharding unit.
struct RootBranch {
  size_t attr;
  int16_t value;
};

/// All root branches of `space`, in search-tree order (attribute-major,
/// then value) — the canonical merge order.
std::vector<RootBranch> RootBranches(const PatternSpace& space);

/// Number of workers to launch for `requested` threads over
/// `num_branches` shards.
int ResolveThreadCount(int requested, size_t num_branches);

namespace internal {

/// Pre-order DFS below `node` (exclusive) over attributes >=
/// `first_attr`. The cursor must be positioned AT `node` (its frames
/// materialize node's intersection). For every child: evaluate counts
/// through the cursor, skip it when smaller than the size threshold
/// (anti-monotone prune), otherwise hand it to the visitor; descend iff
/// the visitor returns true. `node` is mutated in place and restored —
/// visitors must copy the pattern if they keep it.
template <typename Visitor>
void DescendFrom(const BitmapIndex& index, const SearchParams& params,
                 Pattern& node, size_t first_attr, PatternCursor& cursor,
                 Visitor& visitor, uint64_t& nodes_visited) {
  const PatternSpace& space = index.space();
  for (size_t j = first_attr; j < space.num_attributes(); ++j) {
    const int domain = space.domain_size(j);
    for (int16_t v = 0; v < domain; ++v) {
      ++nodes_visited;
      size_t size_d = 0;
      size_t top_k = 0;
      cursor.ChildCounts(j, v, params.k, &size_d, &top_k);
      if (size_d < static_cast<size_t>(params.size_threshold)) continue;
      node.SetValue(j, v);
      if (visitor(node, size_d, top_k)) {
        cursor.Push(j, v);
        DescendFrom(index, params, node, j + 1, cursor, visitor,
                    nodes_visited);
        cursor.Pop();
      }
      node.SetValue(j, Pattern::kUnspecified);
    }
  }
}

}  // namespace internal

/// True when `params` resolves to a single worker — entry points use
/// this to pick the zero-overhead sequential path (one visitor, no
/// per-branch states, no merge).
inline bool RunsSequentially(const SearchParams& params) {
  return ResolveThreadCount(params.num_threads,
                            std::numeric_limits<size_t>::max()) <= 1;
}

/// Sequential full search: drives one visitor over every branch in
/// branch order (the exact order the merge path reproduces). The
/// visitor observes the same node sequence Algorithm 1's explicit-stack
/// formulation would report.
template <typename Visitor>
void SequentialTopDown(const BitmapIndex& index, const SearchParams& params,
                       Visitor& visitor, DetectionStats* stats) {
  WallTimer timer;
  PatternCursor cursor(index);
  Pattern node = Pattern::Empty(index.space().num_attributes());
  uint64_t visited = 0;
  internal::DescendFrom(index, params, node, 0, cursor, visitor, visited);
  if (stats != nullptr) {
    stats->nodes_visited += visited;
    // Consume the delta, never the lifetime counter: a cursor reused
    // across search phases must contribute each hit exactly once.
    stats->cursor_reuse_hits += cursor.TakeReuseHits();
    stats->cpu_seconds += timer.ElapsedSeconds();
  }
}

/// Runs one visitor instance per root branch over that branch's subtree
/// (branch root included), sharding branches across workers, then hands
/// every visitor to `merge(branch_index, std::move(visitor))` in branch
/// order. `make_visitor()` must produce independent, movable visitors
/// whose operator()(const Pattern&, size_t size_d, size_t top_k) -> bool
/// decides descent. Thread-count invariance: per-branch work touches
/// only the (immutable) index and the branch's own visitor/cursor, and
/// the merge loop runs single-threaded in fixed order.
template <typename VisitorFactory, typename MergeFn>
void ShardedTopDown(const BitmapIndex& index, const SearchParams& params,
                    const VisitorFactory& make_visitor, const MergeFn& merge,
                    DetectionStats* stats) {
  const PatternSpace& space = index.space();
  const std::vector<RootBranch> branches = RootBranches(space);
  using VisitorT = std::decay_t<decltype(make_visitor())>;
  const int threads = ResolveThreadCount(params.num_threads, branches.size());

  if (threads <= 1) {
    // Single worker: one visitor sweeps the branches in order — the
    // concatenation of per-branch pre-orders, i.e. the same node
    // sequence the merge path folds — with none of the per-branch
    // state.
    VisitorT visitor = make_visitor();
    SequentialTopDown(index, params, visitor, stats);
    merge(0, std::move(visitor));
    return;
  }

  std::vector<VisitorT> states;
  states.reserve(branches.size());
  for (size_t i = 0; i < branches.size(); ++i) {
    states.push_back(make_visitor());
  }

  std::vector<DetectionStats> worker_stats(static_cast<size_t>(threads));
  std::atomic<size_t> next{0};
  auto worker = [&](size_t w) {
    WallTimer timer;
    PatternCursor cursor(index);
    Pattern node = Pattern::Empty(space.num_attributes());
    DetectionStats& ws = worker_stats[w];
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < branches.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      const RootBranch& b = branches[i];
      ++ws.nodes_visited;
      size_t size_d = 0;
      size_t top_k = 0;
      cursor.ChildCounts(b.attr, b.value, params.k, &size_d, &top_k);
      if (size_d < static_cast<size_t>(params.size_threshold)) continue;
      node.SetValue(b.attr, b.value);
      if (states[i](node, size_d, top_k)) {
        cursor.Push(b.attr, b.value);
        internal::DescendFrom(index, params, node, b.attr + 1, cursor,
                              states[i], ws.nodes_visited);
        cursor.Pop();
      }
      node.SetValue(b.attr, Pattern::kUnspecified);
    }
    ws.cursor_reuse_hits += cursor.TakeReuseHits();
    // Per-worker busy time; Merge() folds these into cpu_seconds (and
    // never into the wall-clock `seconds`, which the entry point owns).
    ws.cpu_seconds = timer.ElapsedSeconds();
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads - 1));
  for (int w = 1; w < threads; ++w) {
    pool.emplace_back(worker, static_cast<size_t>(w));
  }
  worker(0);
  for (std::thread& t : pool) t.join();

  if (stats != nullptr) {
    for (const DetectionStats& ws : worker_stats) stats->Merge(ws);
  }
  for (size_t i = 0; i < branches.size(); ++i) {
    merge(i, std::move(states[i]));
  }
}

/// The per-k loop every detection algorithm runs through: validates
/// `config` against `input` before the [k_min, k_max] result is
/// allocated, then invokes `per_k(k, stats)` for each k in ascending
/// order and stores the finalized violation set it returns. `per_k`
/// may carry state across ks (the incremental algorithms do) and
/// accumulates work counters into the passed DetectionStats. The wall
/// clock `seconds` covers the per_k searches only.
template <typename PerKFn>
Result<DetectionResult> DetectPerK(const DetectionInput& input,
                                   const DetectionConfig& config,
                                   const PerKFn& per_k) {
  FAIRTOPK_RETURN_IF_ERROR(input.ValidateConfig(config));
  DetectionResult result(config.k_min, config.k_max);
  DetectionStats& stats = result.stats();
  for (int k = config.k_min; k <= config.k_max; ++k) {
    WallTimer timer;
    std::vector<Pattern> batch = per_k(k, stats);
    stats.seconds += timer.ElapsedSeconds();
    result.MutableAtK(k) = std::move(batch);
  }
  return result;
}

/// Output of a most-general below-bound search: Res and DRes of
/// Algorithm 1 (deferred = biased patterns shadowed by a more general
/// member of the result, which the incremental algorithms reuse).
struct SearchOutcome {
  MostGeneralResultSet result;
  std::vector<Pattern> deferred;
};

/// Algorithm 1's report step, shared between the per-branch visitors
/// and the cross-branch merge (the classification "res or deferred"
/// depends only on the SET of reported patterns, so applying the same
/// rule during merge reproduces the sequential outcome). One Update
/// scan classifies everything: inserted (evictions → deferred),
/// shadowed by a proper ancestor (→ deferred), or duplicate (dropped).
inline void ReportBiased(const Pattern& p, MostGeneralResultSet& res,
                         std::vector<Pattern>& deferred) {
  UpdateOutcome update = res.Update(p);
  if (update.inserted) {
    for (Pattern& evicted : update.evicted) {
      deferred.push_back(std::move(evicted));
    }
    return;
  }
  if (!update.duplicate) deferred.push_back(p);
}

namespace internal {

/// Visitor of Algorithm 1: stop descent at biased nodes (top-k count
/// strictly below the bound) and collect them with most-general
/// semantics; descend through unbiased nodes.
template <typename BoundFn>
class BelowBoundCollector {
 public:
  explicit BelowBoundCollector(const BoundFn& bound) : bound_(bound) {}

  bool operator()(const Pattern& p, size_t size_d, size_t top_k) {
    if (static_cast<double>(top_k) < bound_(size_d)) {
      ReportBiased(p, outcome_.result, outcome_.deferred);
      return false;
    }
    return true;
  }

  SearchOutcome& outcome() { return outcome_; }

 private:
  BoundFn bound_;
  SearchOutcome outcome_;
};

}  // namespace internal

/// Algorithm 1: full top-down search from the root at a single k,
/// reporting the most-general biased patterns. `bound` is any callable
/// double(size_t size_in_d) — inlined per instantiation.
template <typename BoundFn>
SearchOutcome MostGeneralBelow(const BitmapIndex& index,
                               const SearchParams& params,
                               const BoundFn& bound, DetectionStats* stats) {
  if (RunsSequentially(params)) {
    // Fast path: one collector reports straight into the final outcome;
    // no per-branch states and no re-classification on merge.
    internal::BelowBoundCollector<BoundFn> collector(bound);
    SequentialTopDown(index, params, collector, stats);
    return std::move(collector.outcome());
  }
  SearchOutcome merged;
  ShardedTopDown(
      index, params,
      [&bound] { return internal::BelowBoundCollector<BoundFn>(bound); },
      [&merged](size_t, internal::BelowBoundCollector<BoundFn>&& local) {
        SearchOutcome& out = local.outcome();
        for (const Pattern& p : out.result.patterns()) {
          ReportBiased(p, merged.result, merged.deferred);
        }
        for (Pattern& d : out.deferred) {
          ReportBiased(d, merged.result, merged.deferred);
        }
      },
      stats);
  return merged;
}

/// Generic sequential pre-order descent below `from` with an arbitrary
/// visitor (used by the incremental PROPBOUNDS machinery to expand
/// previously shadowed regions with its own bookkeeping).
template <typename Visitor>
void VisitBelowFrom(const BitmapIndex& index, const SearchParams& params,
                    const Pattern& from, Visitor& visitor,
                    DetectionStats* stats) {
  PatternCursor cursor(index);
  cursor.SeedFrom(from);
  Pattern node = from;
  uint64_t visited = 0;
  internal::DescendFrom(index, params, node,
                        static_cast<size_t>(from.MaxSpecifiedIndex() + 1),
                        cursor, visitor, visited);
  if (stats != nullptr) {
    stats->nodes_visited += visited;
    stats->cursor_reuse_hits += cursor.TakeReuseHits();
  }
}

/// Resumes Algorithm 1 below an interior node `from` (procedure
/// searchFromNode of Algorithm 2): `from` just stopped being biased, so
/// its never-explored subtree is searched now, reporting into the
/// caller's live result/deferred state. Sequential — callers invoke it
/// from the (inherently serial) incremental phases.
template <typename BoundFn>
void MostGeneralBelowFrom(const BitmapIndex& index, const SearchParams& params,
                          const Pattern& from, const BoundFn& bound,
                          MostGeneralResultSet& res,
                          std::vector<Pattern>& deferred,
                          DetectionStats* stats) {
  struct SharedCollector {
    const BoundFn& bound;
    MostGeneralResultSet& res;
    std::vector<Pattern>& deferred;
    bool operator()(const Pattern& p, size_t size_d, size_t top_k) {
      if (static_cast<double>(top_k) < bound(size_d)) {
        ReportBiased(p, res, deferred);
        return false;
      }
      return true;
    }
  };
  SharedCollector visitor{bound, res, deferred};
  VisitBelowFrom(index, params, from, visitor, stats);
}

namespace internal {

template <typename ViolatesFn, typename SetT>
class ExhaustiveVisitor {
 public:
  explicit ExhaustiveVisitor(const ViolatesFn& violates)
      : violates_(violates) {}

  bool operator()(const Pattern& p, size_t size_d, size_t top_k) {
    if (violates_(size_d, top_k)) set_.Update(p);
    return true;
  }

  SetT& set() { return set_; }

 private:
  ViolatesFn violates_;
  SetT set_;
};

}  // namespace internal

/// Exhaustive enumeration of every substantial pattern, filtering
/// violators into a result set with the semantics of `SetT`
/// (MostGeneralResultSet or MostSpecificResultSet). Violation is not
/// assumed anti-monotone, so descent never stops early. Used by the
/// upper-bound detectors.
template <typename SetT, typename ViolatesFn>
SetT ExhaustiveViolations(const BitmapIndex& index, const SearchParams& params,
                          const ViolatesFn& violates, DetectionStats* stats) {
  if (RunsSequentially(params)) {
    internal::ExhaustiveVisitor<ViolatesFn, SetT> visitor(violates);
    SequentialTopDown(index, params, visitor, stats);
    return std::move(visitor.set());
  }
  SetT merged;
  ShardedTopDown(
      index, params,
      [&violates] {
        return internal::ExhaustiveVisitor<ViolatesFn, SetT>(violates);
      },
      [&merged](size_t,
                internal::ExhaustiveVisitor<ViolatesFn, SetT>&& local) {
        for (const Pattern& p : local.set().patterns()) merged.Update(p);
      },
      stats);
  return merged;
}

}  // namespace fairtopk::engine

#endif  // FAIRTOPK_DETECT_ENGINE_SEARCH_DRIVER_H_
