// SessionSpec: the one description of an audit session, and its codec.
//
// The paper's detectors take one parameter set — the k range, the size
// threshold tau, and the bound knobs (L_k via `lower`, alpha) — on top
// of the dataset preparation (CSV, ranking column, buckets, dropped
// columns) and the serving knobs (cache, rebuild threshold, snapshot
// storage). Three front ends describe a session: fairtopk_audit's
// flags, fairtopk_serve's flags, and the JSONL `open` op. All three
// are read off one field table (kSessionFields in session_spec.cc):
// each row names a field's JSON key, its flag, its value type and
// allowed range, its help text, and the front ends that accept it.
//
//   SessionFlags         the table as strict command-line flags (the
//                        session part of both tools' parsers and usage)
//   SessionSpecFromJson  the table as the `open` op's decoder
//   OpenSession          the one builder turning a spec into a session
//                        plus its request defaults
#ifndef FAIRTOPK_SERVICE_SESSION_SPEC_H_
#define FAIRTOPK_SERVICE_SESSION_SPEC_H_

#include <span>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/status.h"
#include "service/audit_session.h"
#include "service/jsonl_defaults.h"
#include "service/persistence.h"

namespace fairtopk {

/// Everything needed to open a served session: where the data comes
/// from, how it is prepared, and the per-session request defaults.
struct SessionSpec {
  std::string csv;      ///< CSV path (required unless snapshot/data_dir)
  std::string rank_by;  ///< numeric ranking column (required with csv)
  /// Snapshot file to restore instead of loading `csv` — a read-only
  /// restore: no op log is attached and maintenance ops are not
  /// persisted. Mutually exclusive with `data_dir`.
  std::string snapshot;
  /// Data directory for a durable session: open-or-replay its
  /// snapshot + op log when present, cold-start from `csv` (and save
  /// the initial snapshot) otherwise. Maintenance ops are logged and
  /// `save` compacts. Takes precedence over `snapshot`.
  std::string data_dir;
  /// fsync the op log after every maintenance op (data_dir only).
  bool fsync_always = false;
  bool ascending = false;
  int bins = 4;  ///< buckets per non-ranking numeric attribute
  std::vector<std::string> drop;  ///< columns to ignore
  /// Request-field fallbacks (k range, tau, threads, bound knobs).
  int k_min = 10;
  int k_max = 49;
  int tau = 0;  ///< 0 = 5% of rows
  int threads = 1;
  double lower_fraction = 0.5;
  double alpha = 0.8;
  /// Session construction knobs (cache capacity, rebuild threshold,
  /// batch executor, ...).
  SessionOptions session;
};

/// The front ends that describe sessions (a bit set in
/// SessionField::front_ends).
enum FrontEnd : unsigned {
  kAuditFlags = 1u << 0,  ///< fairtopk_audit's command line
  kServeFlags = 1u << 1,  ///< fairtopk_serve's command line
  kOpenOp = 1u << 2,      ///< the JSONL `open` op
};

/// One row of the session field table.
struct SessionField {
  const char* key;      ///< JSON key of the `open` op
  const char* flag;     ///< command-line flag
  const char* metavar;  ///< flag value placeholder ("" for switches)
  unsigned front_ends;  ///< FrontEnd bits accepting the field
  double min;           ///< allowed range of a numeric value
  double max;
  FlagSlot (*slot)(SessionSpec&);  ///< the field inside a spec
  const char* help;
};

/// The field table, in usage order.
std::span<const SessionField> SessionFields();

/// The table's flags for `front_end`, bound to `spec`.
std::vector<Flag> SessionFlags(FrontEnd front_end, SessionSpec& spec);

/// A spec must name its data: a csv with its rank_by column, a
/// snapshot, or a data_dir (whose first open also needs the csv).
Status CheckSessionSource(const SessionSpec& spec);

/// Decodes the `open` op's session fields. A present field of the
/// wrong type or out of range, and any key other than op, id, name and
/// the table's `open` keys, is INVALID_ARGUMENT naming the key.
Result<SessionSpec> SessionSpecFromJson(const JsonValue& request);

/// A built session with its request-default fallbacks.
struct OpenedSession {
  AuditSession session;
  ServeDefaults defaults;
};

/// The one way a session is built: opens `spec.data_dir` (open-or-
/// replay, cold start from the csv), restores `spec.snapshot`, or loads
/// `spec.csv`, then derives the request defaults from the spec's k
/// range, tau, threads, and bound knobs. `report` (may be null)
/// receives what a data-dir open did.
Result<OpenedSession> OpenSession(const SessionSpec& spec,
                                  PersistentOpenReport* report = nullptr);

}  // namespace fairtopk

#endif  // FAIRTOPK_SERVICE_SESSION_SPEC_H_
