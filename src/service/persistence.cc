#include "service/persistence.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/metrics/metrics.h"
#include "common/timer.h"

namespace fairtopk {

namespace {

metrics::Histogram& ReplayHistogram() {
  static metrics::Histogram* h =
      &metrics::MetricsRegistry::Global()
           .HistogramFamily("fairtopk_oplog_replay_micros",
                            "Op-log replay latency at session open")
           .With({});
  return *h;
}

Status EnsureDirectory(const std::string& dir) {
  struct stat st;
  if (::stat(dir.c_str(), &st) == 0) {
    if (!S_ISDIR(st.st_mode)) {
      return Status::InvalidArgument(dir + " exists and is not a directory");
    }
    return Status::OK();
  }
  if (::mkdir(dir.c_str(), 0755) != 0) {
    return Status::IoError("cannot create " + dir + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Applies recovered log records through the session's own maintenance
/// calls — exactly what a live client would have done, so the replayed
/// session is bit-identical to one that never restarted. Runs BEFORE
/// the log is attached, so nothing is re-logged.
Status ReplayRecords(AuditSession& session,
                     const std::vector<storage::LogRecord>& records) {
  for (size_t i = 0; i < records.size(); ++i) {
    const storage::LogRecord& record = records[i];
    Status applied;
    if (record.kind == storage::LogRecord::Kind::kUpdate) {
      std::vector<ScoreUpdate> updates;
      updates.reserve(record.edits.size());
      for (const storage::ScoreEdit& e : record.edits) {
        updates.push_back(ScoreUpdate{e.row, e.score});
      }
      applied = session.ApplyScoreUpdates(updates);
    } else if (record.scores.empty()) {
      applied = session.AppendRows(record.rows);
    } else {
      applied = session.AppendRowsWithScores(record.rows, record.scores);
    }
    if (!applied.ok()) {
      return Status::Corruption("op log record " + std::to_string(i + 1) +
                                " does not replay: " + applied.message());
    }
  }
  return Status::OK();
}

}  // namespace

std::string SnapshotPathFor(const std::string& data_dir) {
  return data_dir + "/snapshot.ftk";
}

std::string OpLogPathFor(const std::string& data_dir) {
  return data_dir + "/oplog.ftk";
}

Result<AuditSession> OpenPersistentSession(
    const std::string& data_dir,
    const std::function<Result<AuditSession>()>& cold_start,
    SessionOptions options, storage::FsyncPolicy fsync,
    PersistentOpenReport* report) {
  PersistentOpenReport local_report;
  if (report == nullptr) report = &local_report;
  *report = PersistentOpenReport{};

  FAIRTOPK_RETURN_IF_ERROR(EnsureDirectory(data_dir));
  const std::string snapshot_path = SnapshotPathFor(data_dir);
  const std::string log_path = OpLogPathFor(data_dir);

  if (!FileExists(snapshot_path)) {
    // First boot: build from source data, then make the directory
    // authoritative with an initial snapshot + empty log.
    report->cold_start = true;
    FAIRTOPK_ASSIGN_OR_RETURN(AuditSession session, cold_start());
    FAIRTOPK_RETURN_IF_ERROR(session.SaveSnapshot(snapshot_path));
    FAIRTOPK_ASSIGN_OR_RETURN(
        storage::OpLog log,
        storage::OpLog::Create(log_path, session.storage_info().generation,
                               fsync));
    FAIRTOPK_RETURN_IF_ERROR(session.AttachOpLog(std::move(log)));
    return session;
  }

  FAIRTOPK_ASSIGN_OR_RETURN(
      AuditSession session,
      AuditSession::OpenFromSnapshot(snapshot_path, std::move(options)));
  storage::OpLog::Recovered recovered;
  FAIRTOPK_ASSIGN_OR_RETURN(
      storage::OpLog log,
      storage::OpLog::Open(log_path, session.storage_info().generation,
                           fsync, &recovered));
  report->replayed_records = recovered.records.size();
  report->dropped_torn_tail = recovered.dropped_torn_tail;
  report->discarded_stale_log = recovered.discarded_stale;
  WallTimer timer;
  FAIRTOPK_RETURN_IF_ERROR(ReplayRecords(session, recovered.records));
  ReplayHistogram().Observe(timer.ElapsedMicros());
  FAIRTOPK_RETURN_IF_ERROR(session.AttachOpLog(std::move(log)));
  return session;
}

}  // namespace fairtopk
