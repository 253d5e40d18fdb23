// Open-or-replay: the one entry point tying a session to a data
// directory. OpenSession (service/session_spec.h) calls it for every
// spec with a data_dir — the serving tool's default session and
// catalog `open`s alike — so all run the identical recovery sequence:
//
//   snapshot.ftk exists      -> OpenFromSnapshot, then replay oplog.ftk
//                               (same generation; torn tail tolerated),
//                               then attach the log
//   no snapshot (first boot) -> cold start via the caller's builder,
//                               save the initial snapshot, attach a
//                               fresh log
//
// Either way the returned session has a live op log: every subsequent
// maintenance op is persisted, and SaveSnapshot() compacts.
#ifndef FAIRTOPK_SERVICE_PERSISTENCE_H_
#define FAIRTOPK_SERVICE_PERSISTENCE_H_

#include <functional>
#include <string>

#include "common/status.h"
#include "service/audit_session.h"
#include "storage/op_log.h"

namespace fairtopk {

/// Fixed file names inside a data directory.
std::string SnapshotPathFor(const std::string& data_dir);
std::string OpLogPathFor(const std::string& data_dir);

/// What the open did, for startup logging and tests.
struct PersistentOpenReport {
  bool cold_start = false;  ///< no snapshot; built via the cold-start fn
  size_t replayed_records = 0;
  bool dropped_torn_tail = false;
  bool discarded_stale_log = false;
};

/// Opens (creating if needed) `data_dir` and returns a session bound to
/// it. `cold_start` builds the initial session when no snapshot exists
/// (typically LoadAuditTable + AuditSession::Create); `options` opens
/// the snapshot path; `fsync` is the op log's flush policy (`{}` is
/// kNever). `report` may be null.
Result<AuditSession> OpenPersistentSession(
    const std::string& data_dir,
    const std::function<Result<AuditSession>()>& cold_start,
    SessionOptions options, storage::FsyncPolicy fsync,
    PersistentOpenReport* report);

}  // namespace fairtopk

#endif  // FAIRTOPK_SERVICE_PERSISTENCE_H_
