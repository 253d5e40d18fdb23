#include "service/audit_session.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/metrics/metrics.h"
#include "common/timer.h"
#include "storage/snapshot_writer.h"

namespace fairtopk {

namespace {

/// Process-global persistence metrics, resolved once (the
/// SessionMetrics idiom).
struct StorageMetrics {
  metrics::Gauge& snapshot_bytes;
  metrics::Counter& oplog_records;
  metrics::Histogram& open_read;
  metrics::Histogram& open_mmap;
  metrics::Histogram& save;

  static StorageMetrics& Get() {
    static StorageMetrics* m = [] {
      auto& registry = metrics::MetricsRegistry::Global();
      auto& open = registry.HistogramFamily(
          "fairtopk_snapshot_open_micros",
          "Snapshot open latency by open mode", {"mode"});
      return new StorageMetrics{
          registry
              .GaugeFamily("fairtopk_snapshot_bytes",
                           "On-disk size of the last snapshot written or "
                           "opened")
              .With({}),
          registry
              .CounterFamily("fairtopk_oplog_records_total",
                             "Maintenance records appended to session op "
                             "logs")
              .With({}),
          open.With({"read"}),
          open.With({"mmap"}),
          registry
              .HistogramFamily("fairtopk_snapshot_save_micros",
                               "Snapshot save (write + rename) latency")
              .With({})};
    }();
    return *m;
  }
};

/// Process-global session metrics, resolved once. Per-session counters
/// live in SessionServiceStats; these aggregate across every session
/// for the exposition surfaces.
struct SessionMetrics {
  metrics::Histogram& shared_wait;
  metrics::Histogram& exclusive_wait;
  metrics::Counter& cache_hit;
  metrics::Counter& cache_coalesced;
  metrics::Counter& cache_miss;
  metrics::Counter& maintenance_noop;
  metrics::Counter& maintenance_patched;
  metrics::Counter& maintenance_rebuilt;
  metrics::Counter& nodes_visited;

  static SessionMetrics& Get() {
    static SessionMetrics* m = [] {
      auto& registry = metrics::MetricsRegistry::Global();
      auto& wait = registry.HistogramFamily(
          "fairtopk_session_lock_wait_micros",
          "Time spent acquiring the session state lock", {"mode"});
      auto& cache = registry.CounterFamily(
          "fairtopk_session_cache_total",
          "Session detect outcomes by cache disposition", {"outcome"});
      auto& maintenance = registry.CounterFamily(
          "fairtopk_session_maintenance_total",
          "Maintenance calls by how the index was serviced", {"kind"});
      return new SessionMetrics{
          wait.With({"shared"}),
          wait.With({"exclusive"}),
          cache.With({"hit"}),
          cache.With({"coalesced"}),
          cache.With({"miss"}),
          maintenance.With({"noop"}),
          maintenance.With({"patched"}),
          maintenance.With({"rebuilt"}),
          registry
              .CounterFamily("fairtopk_search_nodes_visited_total",
                             "Engine search nodes visited by completed "
                             "session detect runs")
              .With({})};
    }();
    return *m;
  }
};

/// Acquires `lock` (deferred by the caller), timing the wait into
/// `wait_histogram` when metrics are enabled and reporting a trace
/// span when `trace` is set. With metrics disabled and no trace this
/// is a plain lock() — no clock reads.
template <typename Lock>
void AcquireTimed(Lock& lock, metrics::Histogram& wait_histogram,
                  metrics::TraceSink* trace, const char* span_name) {
  if (!metrics::Enabled() && trace == nullptr) {
    lock.lock();
    return;
  }
  WallTimer timer;
  lock.lock();
  const uint64_t micros = timer.ElapsedMicros();
  if (metrics::Enabled()) wait_histogram.Observe(micros);
  if (trace != nullptr) trace->OnSpan(span_name, micros);
}

bool ScoreRanksBefore(const std::vector<double>& scores, bool ascending,
                      uint32_t a, uint32_t b) {
  const double sa = scores[a];
  const double sb = scores[b];
  if (sa != sb) return ascending ? sa < sb : sa > sb;
  return a < b;
}

std::vector<uint32_t> SortByScore(const std::vector<double>& scores,
                                  bool ascending) {
  std::vector<uint32_t> ranking(scores.size());
  for (size_t i = 0; i < ranking.size(); ++i) {
    ranking[i] = static_cast<uint32_t>(i);
  }
  std::sort(ranking.begin(), ranking.end(), [&](uint32_t a, uint32_t b) {
    return ScoreRanksBefore(scores, ascending, a, b);
  });
  return ranking;
}

/// One (sort key, row) element of the incremental re-rank's merge
/// buffers. Keys are negated for ascending sessions so larger always
/// means earlier; ties break by row id — the same total order as
/// ScoreRanksBefore.
struct RankEntry {
  double key;
  uint32_t row;
  bool Before(const RankEntry& other) const {
    return key != other.key ? key > other.key : row < other.row;
  }
};

/// Merges two Before-sorted runs, writing row ids to `rows_out` and
/// keys to `keys_out` (both sized |a| + |b| by the caller).
void MergeEntries(const std::vector<RankEntry>& a,
                  const std::vector<RankEntry>& b, uint32_t* rows_out,
                  double* keys_out) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const RankEntry& next = b[j].Before(a[i]) ? b[j++] : a[i++];
    *rows_out++ = next.row;
    *keys_out++ = next.key;
  }
  for (; i < a.size(); ++i) {
    *rows_out++ = a[i].row;
    *keys_out++ = a[i].key;
  }
  for (; j < b.size(); ++j) {
    *rows_out++ = b[j].row;
    *keys_out++ = b[j].key;
  }
}

}  // namespace

AuditSession::AuditSession(Table table, std::vector<double> scores,
                           bool ascending, int score_column,
                           SessionOptions options, DetectionInput input)
    : table_(std::move(table)),
      scores_(std::move(scores)),
      ascending_(ascending),
      score_column_(score_column),
      options_(std::move(options)),
      input_(std::move(input)),
      sync_(std::make_unique<Sync>()) {
  inverse_.resize(input_.ranking().size());
  keys_.resize(input_.ranking().size());
  for (size_t pos = 0; pos < inverse_.size(); ++pos) {
    const uint32_t row = input_.ranking()[pos];
    inverse_[row] = static_cast<uint32_t>(pos);
    keys_[pos] = ascending_ ? -scores_[row] : scores_[row];
  }
}

bool AuditSession::RanksBefore(uint32_t a, uint32_t b) const {
  return ScoreRanksBefore(scores_, ascending_, a, b);
}

Result<AuditSession> AuditSession::Create(Table table,
                                          const std::string& score_column,
                                          bool ascending,
                                          SessionOptions options) {
  auto column = table.schema().IndexOf(score_column);
  if (!column.has_value() ||
      table.schema().attribute(*column).type != AttributeType::kNumeric) {
    return Status::InvalidArgument("score column '" + score_column +
                                   "' missing or not numeric");
  }
  std::vector<double> scores(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    scores[r] = table.ValueAt(r, *column);
  }
  if (options.rebuild_threshold < 0.0 || options.rebuild_threshold > 1.0) {
    return Status::InvalidArgument("rebuild_threshold must be in [0, 1]");
  }
  auto input = DetectionInput::PrepareWithRanking(
      table, SortByScore(scores, ascending), options.pattern_attributes);
  if (!input.ok()) return input.status();
  return AuditSession(std::move(table), std::move(scores), ascending,
                      static_cast<int>(*column), std::move(options),
                      std::move(input).value());
}

Result<AuditSession> AuditSession::CreateWithScores(Table table,
                                                    std::vector<double> scores,
                                                    SessionOptions options) {
  if (scores.size() != table.num_rows()) {
    return Status::InvalidArgument(
        "score vector has " + std::to_string(scores.size()) +
        " entries for a table of " + std::to_string(table.num_rows()) +
        " rows");
  }
  if (options.rebuild_threshold < 0.0 || options.rebuild_threshold > 1.0) {
    return Status::InvalidArgument("rebuild_threshold must be in [0, 1]");
  }
  auto input = DetectionInput::PrepareWithRanking(
      table, SortByScore(scores, /*ascending=*/false),
      options.pattern_attributes);
  if (!input.ok()) return input.status();
  return AuditSession(std::move(table), std::move(scores),
                      /*ascending=*/false, /*score_column=*/-1,
                      std::move(options), std::move(input).value());
}

Result<AuditSession> AuditSession::OpenFromSnapshot(const std::string& path,
                                                    SessionOptions options,
                                                    storage::OpenMode mode) {
  if (options.rebuild_threshold < 0.0 || options.rebuild_threshold > 1.0) {
    return Status::InvalidArgument("rebuild_threshold must be in [0, 1]");
  }
  WallTimer timer;
  FAIRTOPK_ASSIGN_OR_RETURN(storage::OpenedSnapshot snap,
                            storage::ReadSnapshot(path, mode));
  // The serving invariant every incremental re-rank leans on: the
  // ranking is sorted under (scores, ascending) with ties by row id.
  // The snapshot reader checks structure, not order, so pin it here.
  const std::vector<uint32_t>& ranking = snap.index->ranking();
  for (size_t pos = 1; pos < ranking.size(); ++pos) {
    if (!ScoreRanksBefore(snap.scores, snap.ascending, ranking[pos - 1],
                          ranking[pos])) {
      return Status::Corruption(
          "snapshot ranking is not sorted by its scores");
    }
  }
  options.pattern_attributes = snap.pattern_attributes;
  DetectionInput input = DetectionInput::FromIndex(std::move(*snap.index));
  AuditSession session(std::move(*snap.table), std::move(snap.scores),
                       snap.ascending, snap.score_column, std::move(options),
                       std::move(input));
  session.snapshot_path_ = path;
  session.storage_generation_ = snap.info.generation;
  session.snapshot_bytes_ = snap.info.file_bytes;
  if (metrics::Enabled()) {
    StorageMetrics& m = StorageMetrics::Get();
    m.snapshot_bytes.Set(static_cast<int64_t>(snap.info.file_bytes));
    (mode == storage::OpenMode::kRead ? m.open_read : m.open_mmap)
        .Observe(timer.ElapsedMicros());
  }
  return session;
}

Status AuditSession::SaveSnapshot(const std::string& path) {
  std::unique_lock<std::shared_mutex> state_lock(sync_->state,
                                                 std::defer_lock);
  AcquireTimed(state_lock, SessionMetrics::Get().exclusive_wait,
               /*trace=*/nullptr, "session_acquire");
  WallTimer timer;
  const uint64_t next_generation = storage_generation_ + 1;
  storage::SnapshotContents contents;
  contents.generation = next_generation;
  contents.ascending = ascending_;
  contents.score_column = score_column_;
  contents.table = &table_;
  contents.scores = &scores_;
  contents.index = &input_.index();
  FAIRTOPK_ASSIGN_OR_RETURN(uint64_t bytes,
                            storage::WriteSnapshot(path, contents));
  snapshot_path_ = path;
  storage_generation_ = next_generation;
  snapshot_bytes_ = bytes;
  if (op_log_.has_value()) {
    // Compaction step two: the logged ops are baked into the snapshot
    // that just landed, so the log restarts empty at the snapshot's
    // generation. A crash between the rename and this Create leaves a
    // stale-generation log the next open detects and discards.
    FAIRTOPK_ASSIGN_OR_RETURN(
        storage::OpLog fresh,
        storage::OpLog::Create(op_log_->path(), next_generation,
                               op_log_->fsync_policy()));
    op_log_ = std::move(fresh);
  }
  if (metrics::Enabled()) {
    StorageMetrics& m = StorageMetrics::Get();
    m.snapshot_bytes.Set(static_cast<int64_t>(bytes));
    m.save.Observe(timer.ElapsedMicros());
  }
  return Status::OK();
}

Status AuditSession::SaveSnapshot() {
  std::string path;
  {
    std::shared_lock<std::shared_mutex> lock(sync_->state);
    path = snapshot_path_;
  }
  if (path.empty()) {
    return Status::FailedPrecondition(
        "session has no snapshot path; pass one to SaveSnapshot");
  }
  return SaveSnapshot(path);
}

Status AuditSession::AttachOpLog(storage::OpLog log) {
  if (!log.is_open()) {
    return Status::InvalidArgument("op log is not open");
  }
  std::unique_lock<std::shared_mutex> state_lock(sync_->state,
                                                 std::defer_lock);
  AcquireTimed(state_lock, SessionMetrics::Get().exclusive_wait,
               /*trace=*/nullptr, "session_acquire");
  if (log.generation() != storage_generation_) {
    return Status::FailedPrecondition(
        "op log generation " + std::to_string(log.generation()) +
        " does not pair with snapshot generation " +
        std::to_string(storage_generation_));
  }
  op_log_ = std::move(log);
  return Status::OK();
}

SessionStorageInfo AuditSession::storage_info() const {
  std::shared_lock<std::shared_mutex> lock(sync_->state);
  SessionStorageInfo info;
  info.log_attached = op_log_.has_value();
  info.generation = storage_generation_;
  info.snapshot_bytes = snapshot_bytes_;
  info.snapshot_path = snapshot_path_;
  if (op_log_.has_value()) {
    info.log_records = op_log_->record_count();
    info.log_bytes = op_log_->bytes();
  }
  return info;
}

Status AuditSession::LogMaintenance(const storage::LogRecord& record) {
  if (!op_log_.has_value()) return Status::OK();
  FAIRTOPK_RETURN_IF_ERROR(op_log_->Append(record));
  if (metrics::Enabled()) StorageMetrics::Get().oplog_records.Inc();
  return Status::OK();
}

std::shared_lock<std::shared_mutex> AuditSession::ReadLock() const {
  return std::shared_lock<std::shared_mutex>(sync_->state);
}

void AuditSession::Bump(uint64_t SessionServiceStats::* field,
                        uint64_t delta) const {
  std::lock_guard<std::mutex> lock(sync_->stats);
  service_stats_.*field += delta;
}

void AuditSession::BumpAll(
    std::initializer_list<uint64_t SessionServiceStats::*> fields) const {
  std::lock_guard<std::mutex> lock(sync_->stats);
  for (auto field : fields) service_stats_.*field += 1;
}

SessionServiceStats AuditSession::service_stats() const {
  std::lock_guard<std::mutex> lock(sync_->stats);
  return service_stats_;
}

void AuditSession::ResetStats() {
  std::lock_guard<std::mutex> lock(sync_->stats);
  service_stats_ = SessionServiceStats{};
}

size_t AuditSession::num_rows() const {
  std::shared_lock<std::shared_mutex> lock(sync_->state);
  return input_.num_rows();
}

size_t AuditSession::cache_size() const {
  std::lock_guard<std::mutex> lock(sync_->cache);
  return cache_.size();
}

Result<api::AuditResponse> AuditSession::Detect(
    const api::AuditRequest& request) {
  FAIRTOPK_ASSIGN_OR_RETURN(const api::DetectorDescriptor* descriptor,
                            api::ResolveRequest(request));
  // Admission: the shared lock pins the ranking for the whole call, so
  // a validated config stays valid and a coalesced response is always
  // computed against the ranking this request saw.
  std::shared_lock<std::shared_mutex> state_lock(sync_->state,
                                                 std::defer_lock);
  AcquireTimed(state_lock, SessionMetrics::Get().shared_wait, request.trace,
               "session_acquire");
  FAIRTOPK_RETURN_IF_ERROR(input_.ValidateConfig(request.config));
  Bump(&SessionServiceStats::detect_queries);
  // A cache hit or coalesced wait did no search work: its trace says
  // `cached` rather than repeating the producing run's work counters.
  const auto trace_cached = [&request] {
    if (request.trace != nullptr) request.trace->OnCounter("cached", 1);
  };
  const bool caching = options_.cache_capacity > 0;
  std::string key = request.CacheKey();
  std::shared_ptr<InFlight> flight;
  bool owner = false;
  {
    std::lock_guard<std::mutex> cache_lock(sync_->cache);
    if (caching) {
      auto it = cache_.find(key);
      if (it != cache_.end()) {
        Bump(&SessionServiceStats::cache_hits);
        if (metrics::Enabled()) SessionMetrics::Get().cache_hit.Inc();
        trace_cached();
        return api::AuditResponse{descriptor, it->second, /*cached=*/true};
      }
    }
    auto [fit, inserted] = sync_->inflight.try_emplace(key);
    if (inserted) {
      fit->second = std::make_shared<InFlight>();
      owner = true;
    }
    flight = fit->second;
  }
  if (!owner) {
    // Coalesce: wait for the owner's run. Both hold the shared state
    // lock, so waiting cannot block the owner — only writers, for no
    // longer than the run itself.
    BumpAll({&SessionServiceStats::cache_hits,
             &SessionServiceStats::coalesced_hits});
    if (metrics::Enabled()) SessionMetrics::Get().cache_coalesced.Inc();
    Result<std::shared_ptr<const DetectionResult>> run = flight->future.get();
    if (!run.ok()) return run.status();
    trace_cached();
    return api::AuditResponse{descriptor, *run, /*cached=*/true,
                              /*coalesced=*/true};
  }
  if (metrics::Enabled()) SessionMetrics::Get().cache_miss.Inc();
  FAIRTOPK_ASSIGN_OR_RETURN(std::shared_ptr<const DetectionResult> shared,
                            RunAndPublish(request, key, flight));
  if (metrics::Enabled()) {
    SessionMetrics::Get().nodes_visited.Inc(shared->stats().nodes_visited);
  }
  if (request.trace != nullptr) {
    request.trace->OnCounter("nodes_visited", shared->stats().nodes_visited);
    request.trace->OnCounter("cursor_reuse_hits",
                             shared->stats().cursor_reuse_hits);
  }
  return api::AuditResponse{descriptor, std::move(shared), /*cached=*/false};
}

Result<std::shared_ptr<const DetectionResult>> AuditSession::RunAndPublish(
    const api::AuditRequest& request, const std::string& key,
    const std::shared_ptr<InFlight>& flight) {
  Result<DetectionResult> run = api::RunAudit(input_, request);
  if (!run.ok()) {
    {
      std::lock_guard<std::mutex> cache_lock(sync_->cache);
      sync_->inflight.erase(key);
    }
    flight->promise.set_value(run.status());
    return run.status();
  }
  auto shared = std::make_shared<const DetectionResult>(std::move(run).value());
  {
    std::lock_guard<std::mutex> cache_lock(sync_->cache);
    sync_->inflight.erase(key);
    if (options_.cache_capacity > 0) CacheInsertLocked(key, shared);
  }
  flight->promise.set_value(shared);
  return shared;
}

Result<std::vector<api::AuditResponse>> AuditSession::DetectMany(
    const std::vector<api::AuditRequest>& requests) {
  const size_t n = requests.size();
  // In-batch dedup by cache key: identical keys later in the batch
  // share the first run's result even when the session cache is
  // disabled (the key is injective over the parameterization, so the
  // results are interchangeable).
  std::unordered_map<std::string, size_t> first_with_key;
  std::vector<size_t> dup_of(n, n);  // n = "distinct, runs itself"
  std::vector<size_t> distinct;
  distinct.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto [it, inserted] = first_with_key.try_emplace(requests[i].CacheKey(), i);
    if (inserted) {
      distinct.push_back(i);
    } else {
      dup_of[i] = it->second;
    }
  }

  std::vector<std::optional<Result<api::AuditResponse>>> runs(n);
  Executor* executor = options_.batch_executor.get();
  if (executor == nullptr) {
    // Serial: preserve the early-abort (later members never run after
    // a failure).
    for (size_t i : distinct) {
      runs[i] = Detect(requests[i]);
      if (!runs[i]->ok()) return runs[i]->status();
    }
  } else {
    // Concurrent: every distinct member runs (each is a leaf task
    // taking the session's shared lock); the response is still the
    // first failure in batch order, matching the serial contract.
    ParallelFor(executor, distinct.size(), [&](size_t j) {
      const size_t i = distinct[j];
      runs[i] = Detect(requests[i]);
    });
    for (size_t i : distinct) {
      if (!runs[i]->ok()) return runs[i]->status();
    }
  }

  std::vector<api::AuditResponse> responses;
  responses.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (dup_of[i] == n) {
      responses.push_back(std::move(*runs[i]).value());
      continue;
    }
    BumpAll({&SessionServiceStats::detect_queries,
             &SessionServiceStats::cache_hits});
    if (metrics::Enabled()) SessionMetrics::Get().cache_hit.Inc();
    api::AuditResponse duplicate = responses[dup_of[i]];
    duplicate.cached = true;
    responses.push_back(std::move(duplicate));
  }
  return responses;
}

void AuditSession::CacheInsertLocked(
    std::string key, std::shared_ptr<const DetectionResult> result) {
  while (cache_.size() >= options_.cache_capacity && !cache_order_.empty()) {
    cache_.erase(cache_order_.front());
    cache_order_.pop_front();
  }
  cache_.emplace(key, std::move(result));
  cache_order_.push_back(std::move(key));
}

Result<SuggestedParameters> AuditSession::Suggest(
    const DetectionConfig& config, const SuggestOptions& options) const {
  std::shared_lock<std::shared_mutex> state_lock(sync_->state);
  return SuggestParameters(input_, config, options);
}

Result<FairnessReport> AuditSession::VerifyGlobal(
    const Pattern& group, const GlobalBoundSpec& bounds,
    const DetectionConfig& config) const {
  std::shared_lock<std::shared_mutex> state_lock(sync_->state);
  return VerifyGlobalFairness(input_, group, bounds, config);
}

Result<FairnessReport> AuditSession::VerifyProp(
    const Pattern& group, const PropBoundSpec& bounds,
    const DetectionConfig& config) const {
  std::shared_lock<std::shared_mutex> state_lock(sync_->state);
  return VerifyPropFairness(input_, group, bounds, config);
}

Result<RepairOutcome> AuditSession::Repair(
    const std::vector<RepresentationConstraint>& constraints,
    const DetectionConfig& config) const {
  std::shared_lock<std::shared_mutex> state_lock(sync_->state);
  return RepairRanking(input_, constraints, config);
}

Status AuditSession::ApplyScoreUpdates(const std::vector<ScoreUpdate>& updates,
                                       MaintenanceReport* report) {
  if (report != nullptr) *report = MaintenanceReport{};
  if (updates.empty()) return Status::OK();
  std::unique_lock<std::shared_mutex> state_lock(sync_->state,
                                                 std::defer_lock);
  AcquireTimed(state_lock, SessionMetrics::Get().exclusive_wait,
               /*trace=*/nullptr, "session_acquire");
  const size_t n = scores_.size();
  for (const ScoreUpdate& u : updates) {
    if (u.row >= n) {
      return Status::OutOfRange("score update for row " +
                                std::to_string(u.row) + " of " +
                                std::to_string(n));
    }
  }
  Bump(&SessionServiceStats::score_updates);
  FAIRTOPK_RETURN_IF_ERROR(
      updates.size() <= options_.repair_rerank_max_batch
          ? RepairRerankUpdates(updates, report)
          : MergeRerankUpdates(updates, report));
  if (op_log_.has_value()) {
    storage::LogRecord record;
    record.kind = storage::LogRecord::Kind::kUpdate;
    record.edits.reserve(updates.size());
    for (const ScoreUpdate& u : updates) {
      record.edits.push_back(storage::ScoreEdit{u.row, u.score});
    }
    FAIRTOPK_RETURN_IF_ERROR(LogMaintenance(record));
  }
  return Status::OK();
}

Status AuditSession::RepairRerankUpdates(
    const std::vector<ScoreUpdate>& updates, MaintenanceReport* report) {
  // One insertion-sort repair per update, in order (duplicates simply
  // repair twice): apply the new score, then slide the row from its
  // current position toward its new one, shifting the rows in between
  // by one slot. Each repair runs on a ranking that is fully sorted
  // under the scores applied so far, so the slide direction test
  // against the immediate neighbor is exact. keys_ and inverse_ are
  // maintained with the shifts; the scratch ranking leaves
  // input_.ranking() untouched for AdoptRanking's diff.
  const size_t n = scores_.size();
  std::vector<uint32_t> ranking(input_.ranking());
  for (const ScoreUpdate& u : updates) {
    scores_[u.row] = u.score;
    const double key = ascending_ ? -u.score : u.score;
    const RankEntry self{key, u.row};
    size_t pos = inverse_[u.row];
    while (pos > 0 &&
           self.Before(RankEntry{keys_[pos - 1], ranking[pos - 1]})) {
      ranking[pos] = ranking[pos - 1];
      keys_[pos] = keys_[pos - 1];
      inverse_[ranking[pos]] = static_cast<uint32_t>(pos);
      --pos;
    }
    while (pos + 1 < n &&
           RankEntry{keys_[pos + 1], ranking[pos + 1]}.Before(self)) {
      ranking[pos] = ranking[pos + 1];
      keys_[pos] = keys_[pos + 1];
      inverse_[ranking[pos]] = static_cast<uint32_t>(pos);
      ++pos;
    }
    ranking[pos] = u.row;
    keys_[pos] = key;
    inverse_[u.row] = static_cast<uint32_t>(pos);
  }
  return AdoptRanking(std::move(ranking), report);
}

Status AuditSession::MergeRerankUpdates(
    const std::vector<ScoreUpdate>& updates, MaintenanceReport* report) {
  const size_t n = scores_.size();
  std::vector<char> moved(n, 0);
  std::vector<uint32_t> movers;
  movers.reserve(updates.size());
  for (const ScoreUpdate& u : updates) {
    scores_[u.row] = u.score;  // later entries win
    if (moved[u.row] == 0) {
      moved[u.row] = 1;
      movers.push_back(u.row);
    }
  }
  std::sort(movers.begin(), movers.end(),
            [this](uint32_t a, uint32_t b) { return RanksBefore(a, b); });

  // Incremental re-rank over the affected region only. Survivors keep
  // their relative order (their scores are untouched), so the ranking
  // can change solely inside [lo, hi]: the span of the movers' old
  // positions, grown outward until the best mover ranks after the
  // survivor on the left and the worst mover ranks before the survivor
  // on the right. Positions outside contain no movers and receive no
  // insertions — O(region + m log m) instead of a full sort.
  const std::vector<uint32_t>& old = input_.ranking();
  size_t lo = n;
  size_t hi = 0;
  for (uint32_t row : movers) {
    lo = std::min<size_t>(lo, inverse_[row]);
    hi = std::max<size_t>(hi, inverse_[row]);
  }
  while (lo > 0 && RanksBefore(movers.front(), old[lo - 1])) --lo;
  while (hi + 1 < n && RanksBefore(old[hi + 1], movers.back())) ++hi;

  // Merge on (key, row) pairs: survivors' keys stream sequentially out
  // of the position-aligned keys_ array (no score loads through the
  // permutation), movers' keys are the m freshly updated scores.
  std::vector<RankEntry> region_survivors;
  region_survivors.reserve(hi - lo + 1 - movers.size());
  for (size_t pos = lo; pos <= hi; ++pos) {
    if (moved[old[pos]] == 0) {
      region_survivors.push_back({keys_[pos], old[pos]});
    }
  }
  std::vector<RankEntry> mover_entries;
  mover_entries.reserve(movers.size());
  for (uint32_t row : movers) {
    mover_entries.push_back({ascending_ ? -scores_[row] : scores_[row], row});
  }

  std::vector<uint32_t> new_ranking(old);
  std::vector<double> region_keys(hi - lo + 1);
  MergeEntries(region_survivors, mover_entries, new_ranking.data() + lo,
               region_keys.data());
  FAIRTOPK_RETURN_IF_ERROR(AdoptRanking(std::move(new_ranking), report));
  std::copy(region_keys.begin(), region_keys.end(), keys_.begin() + lo);
  for (size_t pos = lo; pos <= hi; ++pos) {
    inverse_[input_.ranking()[pos]] = static_cast<uint32_t>(pos);
  }
  return Status::OK();
}

Status AuditSession::AppendRows(const std::vector<std::vector<Cell>>& rows,
                                MaintenanceReport* report) {
  if (score_column_ < 0) {
    return Status::FailedPrecondition(
        "session has no score column; use AppendRowsWithScores");
  }
  std::vector<double> scores;
  scores.reserve(rows.size());
  for (const std::vector<Cell>& row : rows) {
    const size_t col = static_cast<size_t>(score_column_);
    if (row.size() <= col || row[col].is_code) {
      return Status::InvalidArgument(
          "appended row carries no numeric score cell");
    }
    scores.push_back(row[col].value);
  }
  return AppendInternal(rows, scores, report);
}

Status AuditSession::AppendRowsWithScores(
    const std::vector<std::vector<Cell>>& rows,
    const std::vector<double>& scores, MaintenanceReport* report) {
  if (rows.size() != scores.size()) {
    return Status::InvalidArgument("rows and scores differ in length");
  }
  return AppendInternal(rows, scores, report);
}

Status AuditSession::AppendInternal(const std::vector<std::vector<Cell>>& rows,
                                    const std::vector<double>& scores,
                                    MaintenanceReport* report) {
  if (report != nullptr) *report = MaintenanceReport{};
  if (rows.empty()) return Status::OK();
  std::unique_lock<std::shared_mutex> state_lock(sync_->state,
                                                 std::defer_lock);
  AcquireTimed(state_lock, SessionMetrics::Get().exclusive_wait,
               /*trace=*/nullptr, "session_acquire");
  // Validate every row before mutating anything, so a bad batch leaves
  // the session untouched (Table::AppendRow performs the same checks,
  // but only row by row).
  const Schema& schema = table_.schema();
  for (const std::vector<Cell>& row : rows) {
    if (row.size() != schema.size()) {
      return Status::InvalidArgument(
          "appended row has " + std::to_string(row.size()) +
          " cells for a schema of " + std::to_string(schema.size()));
    }
    for (size_t c = 0; c < row.size(); ++c) {
      const AttributeSchema& attr = schema.attribute(c);
      if (attr.type == AttributeType::kCategorical) {
        if (!row[c].is_code || row[c].code < 0 ||
            static_cast<size_t>(row[c].code) >= attr.domain_size()) {
          return Status::InvalidArgument("bad categorical cell for '" +
                                         attr.name + "'");
        }
      } else if (row[c].is_code) {
        return Status::InvalidArgument("numeric cell expected for '" +
                                       attr.name + "'");
      }
    }
  }

  const size_t old_n = table_.num_rows();
  for (const std::vector<Cell>& row : rows) {
    FAIRTOPK_RETURN_IF_ERROR(table_.AppendRow(row));
  }
  scores_.insert(scores_.end(), scores.begin(), scores.end());
  Bump(&SessionServiceStats::appends);
  Bump(&SessionServiceStats::rows_appended, rows.size());

  std::vector<RankEntry> movers;
  movers.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const uint32_t row = static_cast<uint32_t>(old_n + i);
    movers.push_back({ascending_ ? -scores_[row] : scores_[row], row});
  }
  std::sort(movers.begin(), movers.end(),
            [](const RankEntry& a, const RankEntry& b) {
              return a.Before(b);
            });
  // Nothing above the best new row's insertion point moves, so only
  // the suffix from there is re-merged. (keys_, old) is the ranking's
  // sorted (key, row) sequence, so the insertion point is a binary
  // search over positions.
  const std::vector<uint32_t>& old = input_.ranking();
  const size_t n = old_n + rows.size();
  size_t lo = 0;
  {
    size_t end = old_n;
    while (lo < end) {
      const size_t mid = lo + (end - lo) / 2;
      if (RankEntry{keys_[mid], old[mid]}.Before(movers.front())) {
        lo = mid + 1;
      } else {
        end = mid;
      }
    }
  }
  std::vector<RankEntry> suffix;
  suffix.reserve(old_n - lo);
  for (size_t pos = lo; pos < old_n; ++pos) {
    suffix.push_back({keys_[pos], old[pos]});
  }
  std::vector<uint32_t> new_ranking;
  new_ranking.reserve(n);
  new_ranking.assign(old.begin(), old.begin() + lo);
  new_ranking.resize(n);
  std::vector<double> suffix_keys(n - lo);
  MergeEntries(suffix, movers, new_ranking.data() + lo, suffix_keys.data());
  FAIRTOPK_RETURN_IF_ERROR(AdoptRanking(std::move(new_ranking), report));
  keys_.resize(n);
  std::copy(suffix_keys.begin(), suffix_keys.end(), keys_.begin() + lo);
  inverse_.resize(n);
  for (size_t pos = lo; pos < n; ++pos) {
    inverse_[input_.ranking()[pos]] = static_cast<uint32_t>(pos);
  }
  if (op_log_.has_value()) {
    storage::LogRecord record;
    record.kind = storage::LogRecord::Kind::kAppend;
    record.rows = rows;
    // Sessions ranked by a score column re-derive scores from the row
    // cells on replay; explicit-score sessions need them logged.
    if (score_column_ < 0) record.scores = scores;
    FAIRTOPK_RETURN_IF_ERROR(LogMaintenance(record));
  }
  return Status::OK();
}

Status AuditSession::AdoptRanking(std::vector<uint32_t> new_ranking,
                                  MaintenanceReport* report) {
  DetectionInput::MaintenanceOutcome outcome;
  FAIRTOPK_RETURN_IF_ERROR(input_.UpdateRanking(
      table_, std::move(new_ranking), options_.rebuild_threshold, &outcome));
  if (report != nullptr) {
    report->kind = outcome.kind;
    report->positions_patched =
        outcome.kind == DetectionInput::Maintenance::kPatched
            ? outcome.patched_positions
            : 0;
  }
  const bool count = metrics::Enabled();
  switch (outcome.kind) {
    case DetectionInput::Maintenance::kNoop:
      // Same permutation — every cached result is still exact.
      if (count) SessionMetrics::Get().maintenance_noop.Inc();
      break;
    case DetectionInput::Maintenance::kPatched:
      Bump(&SessionServiceStats::index_patches);
      Bump(&SessionServiceStats::positions_patched, outcome.patched_positions);
      if (count) SessionMetrics::Get().maintenance_patched.Inc();
      InvalidateCache();
      break;
    case DetectionInput::Maintenance::kRebuilt:
      Bump(&SessionServiceStats::index_rebuilds);
      if (count) SessionMetrics::Get().maintenance_rebuilt.Inc();
      InvalidateCache();
      break;
  }
  return Status::OK();
}

void AuditSession::InvalidateCache() {
  std::lock_guard<std::mutex> cache_lock(sync_->cache);
  cache_.clear();
  cache_order_.clear();
}

}  // namespace fairtopk
