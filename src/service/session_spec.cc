#include "service/session_spec.h"

#include <utility>

#include "service/table_loader.h"

namespace fairtopk {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMaxCount = 1 << 30;
constexpr unsigned kAllFrontEnds = kAuditFlags | kServeFlags | kOpenOp;

/// The session field table. Ranges are the strictest any front end
/// enforced before the table existed (fairtopk_serve's flag checks).
const SessionField kSessionFields[] = {
    {"csv", "--csv", "PATH", kAllFrontEnds, 0, 0,
     [](SessionSpec& s) -> FlagSlot { return &s.csv; }, "input CSV file"},
    {"rank_by", "--rank-by", "COLUMN", kAllFrontEnds, 0, 0,
     [](SessionSpec& s) -> FlagSlot { return &s.rank_by; },
     "numeric column to rank by, descending"},
    {"ascending", "--ascending", "", kAllFrontEnds, 0, 0,
     [](SessionSpec& s) -> FlagSlot { return &s.ascending; },
     "rank ascending instead"},
    {"bins", "--bins", "N", kAllFrontEnds, 2, 1 << 20,
     [](SessionSpec& s) -> FlagSlot { return &s.bins; },
     "buckets per numeric attribute (default 4)"},
    {"drop", "--drop", "col1,col2", kAllFrontEnds, 0, 0,
     [](SessionSpec& s) -> FlagSlot { return &s.drop; },
     "columns to ignore (ids, names, ...)"},
    {"k_min", "--kmin", "K", kAllFrontEnds, 1, kMaxCount,
     [](SessionSpec& s) -> FlagSlot { return &s.k_min; },
     "first rank of the audited range (default 10)"},
    {"k_max", "--kmax", "K", kAllFrontEnds, 1, kMaxCount,
     [](SessionSpec& s) -> FlagSlot { return &s.k_max; },
     "last rank of the audited range (default 49, clamped to |D|)"},
    {"tau", "--tau", "N", kAllFrontEnds, 1, kMaxCount,
     [](SessionSpec& s) -> FlagSlot { return &s.tau; },
     "group size threshold (default 5% of rows)"},
    {"threads", "--threads", "N", kAllFrontEnds, 0, 4096,
     [](SessionSpec& s) -> FlagSlot { return &s.threads; },
     "worker threads per search (default 1; 0 = hardware concurrency; "
     "results are identical for every value)"},
    {"lower", "--lower", "X", kAllFrontEnds, -kInf, kInf,
     [](SessionSpec& s) -> FlagSlot { return &s.lower_fraction; },
     "global lower bound, fraction of k (default 0.5: L_k = 0.5k "
     "staircase)"},
    {"alpha", "--alpha", "X", kAllFrontEnds, -kInf, kInf,
     [](SessionSpec& s) -> FlagSlot { return &s.alpha; },
     "proportional multiplier (default 0.8)"},
    {"snapshot", "--snapshot", "PATH", kAuditFlags | kOpenOp, 0, 0,
     [](SessionSpec& s) -> FlagSlot { return &s.snapshot; },
     "open a saved snapshot instead of loading a CSV (skips parse, "
     "bucketize and index build; no CSV or ranking column needed)"},
    {"data_dir", "--data-dir", "DIR", kServeFlags | kOpenOp, 0, 0,
     [](SessionSpec& s) -> FlagSlot { return &s.data_dir; },
     "durable session state: open DIR's snapshot and replay its op log "
     "when present (skipping the CSV load), cold start from the CSV and "
     "save the initial snapshot otherwise; update/append ops are "
     "logged, op=save compacts, and shutdown compacts automatically"},
    {"fsync_always", "--fsync-always", "", kServeFlags | kOpenOp, 0, 0,
     [](SessionSpec& s) -> FlagSlot { return &s.fsync_always; },
     "fsync the op log after every maintenance op (durable to the power "
     "cord, slower updates)"},
    {"cache_capacity", "--cache-capacity", "N", kServeFlags | kOpenOp, 0,
     kMaxCount,
     [](SessionSpec& s) -> FlagSlot { return &s.session.cache_capacity; },
     "cached detection results (default 64, 0 disables)"},
    {"rebuild_threshold", "--rebuild-threshold", "X", kServeFlags | kOpenOp,
     0, 1,
     [](SessionSpec& s) -> FlagSlot { return &s.session.rebuild_threshold; },
     "patch the index in place while at most X*|D| rank positions "
     "changed row; rebuild beyond it (default 0.5)"},
};

/// Decodes one present JSON value into its table slot.
Status DecodeField(const SessionField& field, const JsonValue& value,
                   const FlagSlot& slot) {
  bool fits = false;
  if (bool* const* on = std::get_if<bool*>(&slot)) {
    fits = value.is_bool();
    if (fits) **on = value.bool_value();
  } else if (std::string* const* text = std::get_if<std::string*>(&slot)) {
    fits = value.is_string();
    if (fits) **text = value.string_value();
  } else if (auto* const* list =
                 std::get_if<std::vector<std::string>*>(&slot)) {
    fits = value.is_array();
    std::vector<std::string> items;
    for (size_t i = 0; fits && i < value.array_items().size(); ++i) {
      fits = value.array_items()[i].is_string();
      if (fits) items.push_back(value.array_items()[i].string_value());
    }
    if (fits) **list = std::move(items);
  } else {
    fits = value.is_number() &&
           SetNumber(slot, value.number_value(), field.min, field.max);
  }
  if (fits) return Status::OK();
  return Status::InvalidArgument("'" + std::string(field.key) + "' expects " +
                                 DescribeSlot(slot, field.min, field.max));
}

/// The CSV path: load, validate, bucketize, rank, index.
Result<AuditSession> SessionFromCsv(const SessionSpec& spec) {
  if (spec.csv.empty() || spec.rank_by.empty()) {
    return Status::InvalidArgument(
        "data dir " + spec.data_dir +
        " holds no snapshot yet: its first open needs a csv and its "
        "rank_by column to build one");
  }
  FAIRTOPK_ASSIGN_OR_RETURN(
      Table table,
      LoadAuditTable(spec.csv, spec.rank_by, spec.bins, spec.drop));
  return AuditSession::Create(std::move(table), spec.rank_by, spec.ascending,
                              spec.session);
}

}  // namespace

std::span<const SessionField> SessionFields() { return kSessionFields; }

std::vector<Flag> SessionFlags(FrontEnd front_end, SessionSpec& spec) {
  std::vector<Flag> flags;
  for (const SessionField& field : kSessionFields) {
    if ((field.front_ends & front_end) == 0) continue;
    flags.push_back({field.flag, field.metavar, field.help, field.slot(spec),
                     field.min, field.max});
  }
  return flags;
}

Status CheckSessionSource(const SessionSpec& spec) {
  if (!spec.data_dir.empty() || !spec.snapshot.empty() ||
      (!spec.csv.empty() && !spec.rank_by.empty())) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      "a session needs a csv and its rank_by column, a snapshot, or a "
      "data_dir");
}

Result<SessionSpec> SessionSpecFromJson(const JsonValue& request) {
  SessionSpec spec;
  for (const auto& [key, value] : request.object_members()) {
    if (key == "op" || key == "id" || key == "name") continue;
    const SessionField* field = nullptr;
    for (const SessionField& row : kSessionFields) {
      if (key == row.key && (row.front_ends & kOpenOp) != 0) field = &row;
    }
    if (field == nullptr) {
      return Status::InvalidArgument("'open' does not accept '" + key + "'");
    }
    FAIRTOPK_RETURN_IF_ERROR(DecodeField(*field, value, field->slot(spec)));
  }
  FAIRTOPK_RETURN_IF_ERROR(CheckSessionSource(spec));
  return spec;
}

Result<OpenedSession> OpenSession(const SessionSpec& spec,
                                  PersistentOpenReport* report) {
  FAIRTOPK_RETURN_IF_ERROR(CheckSessionSource(spec));
  Result<AuditSession> session = [&]() -> Result<AuditSession> {
    if (!spec.data_dir.empty()) {
      return OpenPersistentSession(
          spec.data_dir, [&spec] { return SessionFromCsv(spec); },
          spec.session,
          spec.fsync_always ? storage::FsyncPolicy::kAlways
                            : storage::FsyncPolicy::kNever,
          report);
    }
    if (!spec.snapshot.empty()) {
      return AuditSession::OpenFromSnapshot(spec.snapshot, spec.session);
    }
    return SessionFromCsv(spec);
  }();
  if (!session.ok()) return session.status();
  ServeDefaults defaults;
  defaults.dataset = !spec.data_dir.empty()   ? spec.data_dir
                     : !spec.snapshot.empty() ? spec.snapshot
                                              : spec.csv;
  defaults.config = MakeToolConfig(spec.k_min, spec.k_max, spec.tau,
                                   spec.threads, session->num_rows());
  defaults.bounds.lower_fraction = spec.lower_fraction;
  defaults.bounds.alpha = spec.alpha;
  return OpenedSession{std::move(session).value(), std::move(defaults)};
}

}  // namespace fairtopk
