// Audit-session serving layer: one long-lived (Table, ranking,
// BitmapIndex) triple serving many detection queries.
//
// The paper's detectors are one-shot — every audit re-ranks the table
// and rebuilds the rank-ordered BitmapIndex. An AuditSession amortizes
// that setup across queries:
//
//  * Query layer. Detect() serves any registered detector (the
//    paper's six live in api::DetectorRegistry) named by a typed
//    api::AuditRequest with per-query DetectionConfig (including
//    num_threads) and returns the whole DetectionResult; DetectMany()
//    runs a batch through Detect() against the one prepared input,
//    deduping identical cache keys (and running the distinct members
//    concurrently when the session has a batch executor); Suggest(),
//    Verify() and Repair() expose calibration, single-group
//    verification, and the rerank mitigation against the same prepared
//    input.
//
//  * Result cache. Detect() results are cached under the request's
//    canonical cache key (api/canonical.h; num_threads is
//    deliberately excluded: the engine's shard-and-merge determinism
//    rule makes results thread-count invariant). The cache is
//    invalidated explicitly (InvalidateCache) or automatically by any
//    maintenance call that changes the ranking permutation.
//
//  * Incremental maintenance. ApplyScoreUpdates() and AppendRows()
//    re-rank by merging the displaced rows into the still-sorted
//    survivor sequence (O(n + m log m), not a full sort), then patch
//    only the suffix of rank positions where the permutation changed
//    (BitmapIndex::ApplyRanking) — with a from-scratch rebuild
//    fallback when the diff window exceeds
//    SessionOptions::rebuild_threshold.
//
// Concurrency model (the contract README.md documents):
//
//  * Readers share, writers exclude. Detect / DetectMany / Suggest /
//    VerifyGlobal / VerifyProp / Repair take a shared lock on the
//    session state and may run concurrently with each other (each
//    query may additionally fan out internally via
//    DetectionConfig::num_threads — the two axes multiply).
//    ApplyScoreUpdates / AppendRows* take the exclusive side: they
//    wait for in-flight queries to drain and block new ones while the
//    ranking and index are patched.
//
//  * Coalescing. When two Detect() calls with the same cache key are
//    in flight at once, the second waits for the first run instead of
//    recomputing (also with caching disabled — coalescing keys off
//    concurrency, not cache capacity). Coalesced responses are marked
//    cached + coalesced and counted in SessionServiceStats. The
//    exclusive lock cannot intervene between a run and its waiters, so
//    every coalesced response is computed under the same ranking its
//    owner admitted.
//
//  * Cache. The FIFO result cache has its own lock; InvalidateCache()
//    only takes that lock. A run that was in flight when an explicit
//    InvalidateCache() happened may publish afterwards — still exact,
//    since explicit invalidation does not change the ranking.
//    Maintenance-triggered invalidation runs under the exclusive state
//    lock, where no run can be in flight.
//
//  * Raw accessors (table() / input() / ranking() / scores()) return
//    references into the guarded state: when writers may run
//    concurrently, hold ReadLock() across the access and every use of
//    the referenced data.
//
// Moving an AuditSession while any concurrent call runs is undefined
// behavior (moves are for construction-time plumbing only).
#ifndef FAIRTOPK_SERVICE_AUDIT_SESSION_H_
#define FAIRTOPK_SERVICE_AUDIT_SESSION_H_

#include <cstdint>
#include <deque>
#include <future>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/audit.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "detect/bounds.h"
#include "detect/detection_result.h"
#include "detect/suggest.h"
#include "detect/verify.h"
#include "mitigate/rerank.h"
#include "relation/table.h"
#include "storage/op_log.h"

namespace fairtopk {

/// Construction-time knobs of an AuditSession.
struct SessionOptions {
  /// Pattern attributes for the index (all categorical when empty).
  std::vector<std::string> pattern_attributes;
  /// Maintenance picks the in-place index patch while the number of
  /// rank positions whose row changed is at most this fraction of the
  /// rows, and falls back to a from-scratch rebuild beyond it
  /// (patching most of the index costs more than rebuilding it: a
  /// patched position pays a compare + Clear + Set per attribute
  /// against the rebuild's single Set). 0 forces rebuilds, 1 always
  /// patches.
  double rebuild_threshold = 0.5;
  /// Maximum cached detection results; oldest entries are evicted
  /// first. 0 disables caching.
  size_t cache_capacity = 64;
  /// Score-update batches with at most this many entries re-rank by
  /// per-row insertion repair (O(move distance) per row — ideal for
  /// serving churn); larger batches fall back to one merge over the
  /// affected rank region (O(region + m log m), immune to quadratic
  /// blowup when many rows move far). 0 always merges, SIZE_MAX always
  /// repairs.
  size_t repair_rerank_max_batch = 256;
  /// Executor running DetectMany's distinct batch members concurrently
  /// (null runs them serially on the caller). Must be a pool DEDICATED
  /// to session batches: the submitted tasks are leaves, but a caller
  /// blocking inside DetectMany on the same pool that runs its
  /// requests can starve itself (see common/thread_pool.h).
  std::shared_ptr<Executor> batch_executor;
};

/// One score change of ApplyScoreUpdates.
struct ScoreUpdate {
  uint32_t row = 0;
  double score = 0.0;
};

/// How one maintenance call (ApplyScoreUpdates / AppendRows*) serviced
/// the index. Reported per call (out-parameter) because diffing the
/// global SessionServiceStats counters misattributes work when
/// concurrent writers interleave between the two reads.
struct MaintenanceReport {
  DetectionInput::Maintenance kind = DetectionInput::Maintenance::kNoop;
  /// Rank positions rewritten in place (kPatched only).
  uint64_t positions_patched = 0;
};

/// Counters describing a session's life so far.
struct SessionServiceStats {
  uint64_t detect_queries = 0;   ///< Detect() calls served
  uint64_t cache_hits = 0;       ///< served without running a detector
  uint64_t coalesced_hits = 0;   ///< of cache_hits: waited on an
                                 ///< identical in-flight run
  uint64_t score_updates = 0;    ///< ApplyScoreUpdates() calls
  uint64_t appends = 0;          ///< AppendRows*() calls
  uint64_t rows_appended = 0;    ///< total rows added by appends
  uint64_t index_patches = 0;    ///< maintenance served incrementally
  uint64_t index_rebuilds = 0;   ///< maintenance that rebuilt the index
  uint64_t positions_patched = 0;///< rank positions rewritten in place
};

/// A session's durability state, as reported by `stats`/`snapshot_info`.
struct SessionStorageInfo {
  /// True when an op log is attached (maintenance ops are persisted).
  bool log_attached = false;
  /// Generation of the snapshot this session's log extends (0 until a
  /// snapshot exists).
  uint64_t generation = 0;
  /// On-disk size of the last snapshot written or opened.
  uint64_t snapshot_bytes = 0;
  std::string snapshot_path;
  /// Records (and bytes) in the attached log awaiting compaction.
  uint64_t log_records = 0;
  uint64_t log_bytes = 0;
};

/// A long-lived audit session over one dataset. See the file comment.
class AuditSession {
 public:
  /// Opens a session over `table`, ranked descending (or ascending) by
  /// the numeric column `score_column`; ties break by row id. The
  /// column's values become the session's score vector — later
  /// ApplyScoreUpdates() calls supersede them (the table column itself
  /// is immutable and retains the original values).
  static Result<AuditSession> Create(Table table,
                                     const std::string& score_column,
                                     bool ascending = false,
                                     SessionOptions options = {});

  /// Opens a session over `table` with an explicit per-row score
  /// vector, ranked descending with ties broken by row id. Sessions
  /// built this way must append via AppendRowsWithScores().
  static Result<AuditSession> CreateWithScores(Table table,
                                               std::vector<double> scores,
                                               SessionOptions options = {});

  /// Restores a session from a snapshot written by SaveSnapshot() —
  /// the quadruple is deserialized and validated, not recomputed, so
  /// opening skips CSV parsing, ranking, and the index build entirely.
  /// `options.pattern_attributes` is ignored: the snapshot's pattern
  /// space is authoritative. Snapshot errors are typed (kTruncated /
  /// kChecksumMismatch / kVersionMismatch / kCorruption).
  static Result<AuditSession> OpenFromSnapshot(
      const std::string& path, SessionOptions options = {});

  /// Writes a snapshot of the current state to `path` via the atomic
  /// tmp+fsync+rename sequence, bumping the storage generation. With an
  /// op log attached this is compaction: after the snapshot lands, the
  /// log restarts empty at the new generation (a crash between the two
  /// steps leaves a stale-generation log that the next open discards).
  /// Takes the exclusive state lock.
  Status SaveSnapshot(const std::string& path);
  /// As above, re-using the path of the last SaveSnapshot/OpenFromSnapshot.
  Status SaveSnapshot();

  /// Attaches `log`: every subsequent successful ApplyScoreUpdates /
  /// AppendRows* call appends one canonical-codec record before the
  /// exclusive lock is released. The log's generation must match the
  /// session's storage generation (pairing it with the snapshot the
  /// session came from). Replay the log's recovered records BEFORE
  /// attaching — un-attached maintenance calls do not log, which is
  /// what makes replay idempotent.
  Status AttachOpLog(storage::OpLog log);

  /// A consistent snapshot of the durability state.
  SessionStorageInfo storage_info() const;

  AuditSession(AuditSession&&) = default;
  AuditSession& operator=(AuditSession&&) = default;

  /// Runs (or serves from cache) one detection query against any
  /// detector registered in api::DetectorRegistry::Global(). The
  /// response's result is shared with the cache; it stays valid after
  /// later maintenance calls even though the cache entry is dropped.
  /// Safe to call from any number of threads; identical concurrent
  /// queries coalesce onto one run (see the file comment).
  Result<api::AuditResponse> Detect(const api::AuditRequest& request);

  /// Runs several requests against the one prepared input. Requests
  /// with identical cache keys are served from the first run — also
  /// with caching disabled, where in-batch deduplication is the only
  /// sharing (deduplicated entries count as cache hits in the service
  /// stats and are marked `cached`). Distinct members run concurrently
  /// on SessionOptions::batch_executor when one is set. Responses
  /// align with `requests` by index; the first (in batch order)
  /// failing request aborts the batch.
  Result<std::vector<api::AuditResponse>> DetectMany(
      const std::vector<api::AuditRequest>& requests);

  /// Parameter calibration against the current ranking (uncached — see
  /// SuggestParameters).
  Result<SuggestedParameters> Suggest(const DetectionConfig& config,
                                      const SuggestOptions& options) const;

  /// Verifies one declared group against global or proportional bounds
  /// over the query's k range.
  Result<FairnessReport> VerifyGlobal(const Pattern& group,
                                      const GlobalBoundSpec& bounds,
                                      const DetectionConfig& config) const;
  Result<FairnessReport> VerifyProp(const Pattern& group,
                                    const PropBoundSpec& bounds,
                                    const DetectionConfig& config) const;

  /// Rerank mitigation: repairs the session's current ranking so the
  /// given groups meet their floors. Pure query — the session keeps
  /// serving its own ranking (adopt the outcome by building a new
  /// session if desired).
  Result<RepairOutcome> Repair(
      const std::vector<RepresentationConstraint>& constraints,
      const DetectionConfig& config) const;

  /// Applies score changes (later entries win on duplicate rows) and
  /// re-ranks incrementally: small batches repair each updated row in
  /// place (O(move distance) per row), large batches re-merge the
  /// affected rank region (see SessionOptions::repair_rerank_max_batch
  /// for the crossover) — never a full sort. The index is then patched
  /// or rebuilt per the rebuild threshold. The result cache survives
  /// only when the ranking permutation is unchanged. Takes the
  /// exclusive state lock. `report`, when given, receives how THIS
  /// call serviced the index.
  Status ApplyScoreUpdates(const std::vector<ScoreUpdate>& updates,
                           MaintenanceReport* report = nullptr);

  /// Appends full rows (cells per the session table's schema). The
  /// score is read from the session's score column; only sessions
  /// opened with Create() may use this overload. Takes the exclusive
  /// state lock.
  Status AppendRows(const std::vector<std::vector<Cell>>& rows,
                    MaintenanceReport* report = nullptr);

  /// Appends rows with explicit scores (one per row). Takes the
  /// exclusive state lock.
  Status AppendRowsWithScores(const std::vector<std::vector<Cell>>& rows,
                              const std::vector<double>& scores,
                              MaintenanceReport* report = nullptr);

  /// Drops every cached detection result. Only takes the cache lock.
  void InvalidateCache();

  /// A shared (reader) lock on the session state. While held, the
  /// ranking, scores, table, and index are stable: hold one across any
  /// use of the reference-returning accessors below when writers may
  /// run concurrently. Do not acquire around calls that lock
  /// internally (Detect, Suggest, ... — the lock is not recursive).
  std::shared_lock<std::shared_mutex> ReadLock() const;

  const Table& table() const { return table_; }
  const DetectionInput& input() const { return input_; }
  /// The pattern space is fixed at creation (appends may not extend
  /// domains), so this accessor needs no lock.
  const PatternSpace& space() const { return input_.space(); }
  size_t num_rows() const;
  const std::vector<uint32_t>& ranking() const { return input_.ranking(); }
  /// The authoritative per-row scores (post-updates).
  const std::vector<double>& scores() const { return scores_; }
  size_t cache_size() const;
  /// A consistent snapshot of the service counters: one struct copy
  /// taken under the stats mutex, so no field is torn and counters
  /// bumped under a single lock hold (e.g. a coalesced hit's
  /// cache_hits + coalesced_hits) never appear half-applied.
  SessionServiceStats service_stats() const;
  /// Zeroes every service counter (bench/test isolation — bench_micro
  /// reuses one session across iterations and would otherwise
  /// accumulate). Takes only the stats mutex.
  void ResetStats();
  const SessionOptions& options() const { return options_; }

 private:
  /// One in-flight Detect run: the owner computes and publishes here;
  /// coalesced callers wait on the shared future.
  struct InFlight {
    std::promise<Result<std::shared_ptr<const DetectionResult>>> promise;
    std::shared_future<Result<std::shared_ptr<const DetectionResult>>>
        future = promise.get_future().share();
  };

  /// Synchronization state, heap-allocated so the session stays
  /// movable (mutexes are neither movable nor copyable). Lock order:
  /// state -> cache -> stats; never acquire leftwards while holding a
  /// lock to the right.
  struct Sync {
    mutable std::shared_mutex state;  ///< ranking / index / scores / table
    mutable std::mutex cache;  ///< cache_, cache_order_, inflight
    mutable std::mutex stats;  ///< service_stats_
    /// Cache key -> the in-flight run coalescing waiters attach to.
    std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight;
  };

  AuditSession(Table table, std::vector<double> scores, bool ascending,
               int score_column, SessionOptions options,
               DetectionInput input);

  /// True iff row `a` ranks before row `b` under (score, ascending_)
  /// with ties broken by row id.
  bool RanksBefore(uint32_t a, uint32_t b) const;

  /// The two re-rank strategies behind ApplyScoreUpdates. Both leave
  /// scores_/keys_/inverse_ consistent and finish through
  /// AdoptRanking. Callers hold the exclusive state lock.
  Status RepairRerankUpdates(const std::vector<ScoreUpdate>& updates,
                             MaintenanceReport* report);
  Status MergeRerankUpdates(const std::vector<ScoreUpdate>& updates,
                            MaintenanceReport* report);

  /// Replaces the ranking with `new_ranking` (patch or rebuild per the
  /// threshold), updates maintenance stats (and `report`, when given),
  /// and invalidates the cache when the permutation actually changed.
  Status AdoptRanking(std::vector<uint32_t> new_ranking,
                      MaintenanceReport* report);

  /// Shared implementation of the append overloads.
  Status AppendInternal(const std::vector<std::vector<Cell>>& rows,
                        const std::vector<double>& scores,
                        MaintenanceReport* report);

  /// Appends one maintenance record to the attached log, if any. The
  /// caller holds the exclusive state lock and has already applied the
  /// op; a log write failure surfaces as the call's status (the state
  /// is ahead of the log until the next successful snapshot).
  Status LogMaintenance(const storage::LogRecord& record);

  /// Runs the detector for `request` under the caller's shared state
  /// lock and publishes the outcome: fulfills `flight`'s promise,
  /// removes it from the in-flight map, and (when caching) inserts the
  /// result into the cache — all before the state lock is released, so
  /// the exclusive side never observes a half-published run.
  Result<std::shared_ptr<const DetectionResult>> RunAndPublish(
      const api::AuditRequest& request, const std::string& key,
      const std::shared_ptr<InFlight>& flight);

  /// Inserts a result under `key`, evicting FIFO beyond capacity. The
  /// caller holds Sync::cache and is the key's in-flight owner, so the
  /// key is not cached yet (a cached key never starts a run).
  void CacheInsertLocked(std::string key,
                         std::shared_ptr<const DetectionResult> result);

  /// Adds `delta` to one service counter under the stats lock.
  void Bump(uint64_t SessionServiceStats::* field, uint64_t delta = 1) const;

  /// Adds 1 to several counters under ONE stats lock hold, so a
  /// service_stats() snapshot never observes them half-applied (a
  /// coalesced hit is always cache_hits + coalesced_hits together).
  void BumpAll(
      std::initializer_list<uint64_t SessionServiceStats::*> fields) const;

  Table table_;
  std::vector<double> scores_;
  /// inverse_[row] = current rank position of `row`; lets the
  /// incremental re-rank locate updated rows without scanning the
  /// permutation. Maintained over the re-merged region only.
  std::vector<uint32_t> inverse_;
  /// keys_[pos] = sort key of the row at rank position `pos` (the
  /// score, negated for ascending sessions so larger always means
  /// earlier). A position-aligned copy so the re-rank's survivor
  /// gather streams keys sequentially instead of chasing scores_
  /// through the permutation.
  std::vector<double> keys_;
  bool ascending_ = false;
  /// Index of the score column in the table schema; -1 for sessions
  /// created with explicit scores.
  int score_column_ = -1;
  SessionOptions options_;
  DetectionInput input_;

  std::unique_ptr<Sync> sync_;

  /// FIFO-evicted result cache; keys in insertion order. Guarded by
  /// Sync::cache.
  std::unordered_map<std::string, std::shared_ptr<const DetectionResult>>
      cache_;
  std::deque<std::string> cache_order_;
  /// Guarded by Sync::stats (mutable: const queries still count).
  mutable SessionServiceStats service_stats_;

  /// Durability state, guarded by Sync::state (maintenance and
  /// SaveSnapshot mutate it under the exclusive lock; storage_info()
  /// reads it under the shared lock).
  std::string snapshot_path_;
  uint64_t storage_generation_ = 0;
  uint64_t snapshot_bytes_ = 0;
  std::optional<storage::OpLog> op_log_;
};

}  // namespace fairtopk

#endif  // FAIRTOPK_SERVICE_AUDIT_SESSION_H_
