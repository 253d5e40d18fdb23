#include "service/jsonl_service.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <iostream>
#include <istream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "index/kernels/kernels.h"
#include "report/json_report.h"
#include "storage/snapshot_format.h"

namespace fairtopk {

namespace {

/// Wire-layer metric families (series resolved per request — the op
/// label is only known then). One instance per process.
struct ServiceMetrics {
  metrics::Family<metrics::Counter>& requests;
  metrics::Family<metrics::Counter>& errors;
  metrics::Family<metrics::Histogram>& latency;
  metrics::Family<metrics::Counter>& slow;
  metrics::Gauge& reorder_depth;
  metrics::Counter& backpressure_stalls;

  static ServiceMetrics& Get() {
    static ServiceMetrics* m = [] {
      auto& registry = metrics::MetricsRegistry::Global();
      return new ServiceMetrics{
          registry.CounterFamily("fairtopk_requests_total",
                                 "JSONL requests handled, by op", {"op"}),
          registry.CounterFamily("fairtopk_request_errors_total",
                                 "JSONL error responses, by op and status "
                                 "code",
                                 {"op", "code"}),
          registry.HistogramFamily("fairtopk_request_latency_micros",
                                   "End-to-end request latency (parse to "
                                   "serialized response)",
                                   {"op"}),
          registry.CounterFamily("fairtopk_slow_queries_total",
                                 "Requests that crossed the slow-query-log "
                                 "threshold, by op",
                                 {"op"}),
          registry
              .GaugeFamily("fairtopk_reorder_buffer_depth",
                           "Completed responses held for in-order emission "
                           "across all serving loops")
              .With({}),
          registry
              .CounterFamily("fairtopk_backpressure_stalls_total",
                             "Times a request-line reader (a TCP "
                             "connection or the stdin loop) blocked on the "
                             "admission window (max_pending)")
              .With({})};
    }();
    return *m;
  }
};

/// Canonicalizes the wire op into a bounded label set so a client
/// sending arbitrary op strings cannot grow unbounded metric series.
const char* OpLabel(const std::string& op) {
  static constexpr const char* kKnown[] = {
      "detect", "detect_batch", "capabilities", "suggest",   "verify",
      "rerank", "update",       "append",       "stats",     "metrics",
      "open",   "close",        "list",         "use",       "invalidate",
      "save",   "snapshot_info"};
  for (const char* known : kKnown) {
    if (op == known) return known;
  }
  return "other";
}

/// Echoes the request id (string, number, or bool) into the response;
/// anything else — including a missing id — becomes null. Integral
/// numeric ids are rendered exactly: JsonWriter::Double's %.10g is
/// meant for report metrics and would corrupt ids with more than 10
/// significant digits (e.g. epoch-millis or uint64 snowflake ids),
/// orphaning the response for any client correlating by id.
void WriteId(JsonWriter& w, const JsonValue& request) {
  const JsonValue* id = request.Find("id");
  w.Key("id");
  if (id == nullptr) {
    w.Null();
    return;
  }
  switch (id->type()) {
    case JsonValue::Type::kString:
      w.String(id->string_value());
      break;
    case JsonValue::Type::kNumber: {
      const double v = id->number_value();
      if (v == std::floor(v) && v >= -9223372036854775808.0 &&
          v < 9223372036854775808.0) {
        w.Int(static_cast<long long>(v));
      } else if (v == std::floor(v) && v >= 9223372036854775808.0 &&
                 v < 18446744073709551616.0) {
        // Integral ids in [2^63, 2^64) — uint64 snowflake ids — fit
        // Uint exactly (every integral double in this range is a
        // uint64); Double would mangle them.
        w.Uint(static_cast<unsigned long long>(v));
      } else {
        w.Double(v);
      }
      break;
    }
    case JsonValue::Type::kBool:
      w.Bool(id->bool_value());
      break;
    default:
      w.Null();
  }
}

std::string ErrorResponse(const JsonValue& request, const Status& status) {
  JsonWriter w;
  w.BeginObject();
  WriteId(w, request);
  w.Key("ok").Bool(false);
  w.Key("error").BeginObject();
  w.Key("code").String(StatusCodeName(status.code()));
  w.Key("message").String(status.message());
  w.EndObject();
  w.EndObject();
  return w.str();
}

std::string OkResponse(const JsonValue& request, const std::string& data) {
  JsonWriter w;
  w.BeginObject();
  WriteId(w, request);
  w.Key("ok").Bool(true);
  w.Key("data").Raw(data);
  w.EndObject();
  return w.str();
}

/// Decodes {"Attr": "label", ...} into a pattern over `space`.
Result<Pattern> PatternField(const JsonValue& group,
                             const PatternSpace& space) {
  if (!group.is_object()) {
    return Status::InvalidArgument(
        "'group' must be an object of attribute labels");
  }
  std::vector<std::pair<std::string, std::string>> labels;
  for (const auto& [name, label] : group.object_members()) {
    if (!label.is_string()) {
      return Status::InvalidArgument("group value for '" + name +
                                     "' must be a string label");
    }
    labels.emplace_back(name, label.string_value());
  }
  return PatternFromLabels(labels, space);
}

/// Serializes a session's storage state — shared by op=snapshot_info,
/// op=save's response, and op=stats' "storage" block.
void WriteStorageInfo(JsonWriter& w, const SessionStorageInfo& info) {
  w.BeginObject();
  w.Key("persistent").Bool(info.log_attached);
  w.Key("snapshot_version").Uint(storage::kSnapshotVersion);
  w.Key("generation").Uint(info.generation);
  w.Key("snapshot_bytes").Uint(info.snapshot_bytes);
  w.Key("snapshot_path").String(info.snapshot_path);
  w.Key("log_records").Uint(info.log_records);
  w.Key("log_bytes").Uint(info.log_bytes);
  w.EndObject();
}

void WriteMaintenance(JsonWriter& w, const MaintenanceReport& report) {
  const char* kind = "noop";
  if (report.kind == DetectionInput::Maintenance::kRebuilt) {
    kind = "rebuilt";
  } else if (report.kind == DetectionInput::Maintenance::kPatched) {
    kind = "patched";
  }
  w.Key("maintenance").String(kind);
  w.Key("positions_patched").Uint(report.positions_patched);
}

/// The required string field `key`, or InvalidArgument.
Result<std::string> RequiredString(const JsonValue& request,
                                   const std::string& key,
                                   const std::string& op) {
  const JsonValue* value = request.Find(key);
  if (value == nullptr || !value->is_string() ||
      value->string_value().empty()) {
    return Status::InvalidArgument("'" + op + "' requires a non-empty '" +
                                   key + "' string");
  }
  return value->string_value();
}

}  // namespace

Result<JsonlService::Target> JsonlService::ResolveTarget(
    const JsonValue& request, Context& context) const {
  const JsonValue* selector = request.Find("session");
  if (catalog_ == nullptr) {
    if (selector != nullptr) {
      return Status::FailedPrecondition(
          "this service has no session catalog ('session' routing "
          "requires one)");
    }
    return Target{session_, &defaults_, nullptr};
  }
  std::string name;
  if (selector != nullptr) {
    if (!selector->is_string()) {
      return Status::InvalidArgument("'session' must be a session name");
    }
    name = selector->string_value();
  } else {
    name = context.current();
    if (name.empty()) name = default_session_;
  }
  std::shared_ptr<SessionCatalog::Entry> entry = catalog_->Find(name);
  if (entry == nullptr) {
    return Status::NotFound("no session named '" + name +
                            "' (see op=list)");
  }
  AuditSession* session = &entry->session;
  const ServeDefaults* defaults = &entry->defaults;
  return Target{session, defaults, std::move(entry)};
}

Result<api::AuditRequest> JsonlService::DecodeRequest(
    const JsonValue& request, const ServeDefaults& defaults) const {
  const api::DetectorRegistry& registry = api::DetectorRegistry::Global();
  const api::DetectorDescriptor* descriptor = nullptr;
  // The registry name wins over the wire (measure, algo) pair.
  if (const JsonValue* name = request.Find("detector")) {
    if (!name->is_string()) {
      return Status::InvalidArgument(
          "'detector' must be a registered detector name");
    }
    descriptor = registry.Find(name->string_value());
    if (descriptor == nullptr) {
      return Status::NotFound("no detector named '" + name->string_value() +
                              "' is registered (see op=capabilities)");
    }
  } else {
    FAIRTOPK_ASSIGN_OR_RETURN(
        descriptor, registry.Resolve(request.StringOr("measure", "prop"),
                                     request.StringOr("algo", "bounds")));
  }
  api::AuditRequest query;
  query.detector = descriptor->name;
  FAIRTOPK_ASSIGN_OR_RETURN(query.config,
                            api::ConfigFromJson(request, defaults.config));
  FAIRTOPK_ASSIGN_OR_RETURN(
      query.bounds,
      api::BoundsFromJson(request, descriptor->bounds_kind, defaults.bounds,
                          query.config));
  return query;
}

std::string JsonlService::DetectionResponseJson(
    const Target& target, const api::AuditResponse& response,
    metrics::TraceSink* trace) const {
  metrics::SpanTimer span(trace, "serialize");
  ReportContext context{target.defaults->dataset,
                        api::MeasureLabel(*response.detector),
                        response.detector->name};
  JsonWriter w;
  w.BeginObject();
  w.Key("cached").Bool(response.cached);
  w.Key("coalesced").Bool(response.coalesced);
  // The report annotates each violating group with its current
  // index counts — pin the index against concurrent update/append
  // requests while it is read.
  auto read_guard = target.session->ReadLock();
  w.Key("report").Raw(DetectionResultToJson(
      *response.result, target.session->input(), context));
  w.EndObject();
  return w.str();
}

Result<std::string> JsonlService::HandleDetect(const Target& target,
                                               const JsonValue& request,
                                               metrics::TraceSink* trace) {
  FAIRTOPK_ASSIGN_OR_RETURN(api::AuditRequest query,
                            DecodeRequest(request, *target.defaults));
  query.trace = trace;
  FAIRTOPK_ASSIGN_OR_RETURN(api::AuditResponse response,
                            target.session->Detect(query));
  return DetectionResponseJson(target, response, trace);
}

Result<std::string> JsonlService::HandleDetectBatch(const Target& target,
                                                    const JsonValue& request,
                                                    metrics::TraceSink* trace) {
  const JsonValue* queries = request.Find("queries");
  if (queries == nullptr || !queries->is_array() ||
      queries->array_items().empty()) {
    return Status::InvalidArgument(
        "'detect_batch' requires a non-empty 'queries' array");
  }
  std::vector<api::AuditRequest> batch;
  batch.reserve(queries->array_items().size());
  for (const JsonValue& q : queries->array_items()) {
    if (!q.is_object()) {
      return Status::InvalidArgument("each batched query must be an object");
    }
    FAIRTOPK_ASSIGN_OR_RETURN(api::AuditRequest query,
                              DecodeRequest(q, *target.defaults));
    batch.push_back(std::move(query));
  }
  // Batch members run concurrently on the session's batch executor, so
  // the (single-threaded) request trace is NOT attached to them — the
  // batch still reports parse/serialize spans and per-op latency.
  FAIRTOPK_ASSIGN_OR_RETURN(std::vector<api::AuditResponse> responses,
                            target.session->DetectMany(batch));
  metrics::SpanTimer span(trace, "serialize");
  JsonWriter w;
  w.BeginObject();
  w.Key("results").BeginArray();
  for (const api::AuditResponse& response : responses) {
    w.Raw(DetectionResponseJson(target, response, /*trace=*/nullptr));
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

Result<std::string> JsonlService::HandleCapabilities(const JsonValue&) {
  return api::CapabilitiesJson(api::DetectorRegistry::Global());
}

Result<std::string> JsonlService::HandleSuggest(const Target& target,
                                                const JsonValue& request) {
  DetectionConfig config = target.defaults->config;
  FAIRTOPK_ASSIGN_OR_RETURN(config.k_min,
                            api::ReadIntField(request, "k_min", config.k_min));
  FAIRTOPK_ASSIGN_OR_RETURN(config.k_max,
                            api::ReadIntField(request, "k_max", config.k_max));
  FAIRTOPK_ASSIGN_OR_RETURN(
      config.num_threads,
      api::ReadIntField(request, "threads", config.num_threads));
  SuggestOptions options;
  FAIRTOPK_ASSIGN_OR_RETURN(
      int max_groups,
      api::ReadIntField(request, "max_groups",
                        static_cast<int>(options.max_groups)));
  if (max_groups < 1) {
    return Status::InvalidArgument("'max_groups' must be positive");
  }
  options.max_groups = static_cast<size_t>(max_groups);
  FAIRTOPK_ASSIGN_OR_RETURN(SuggestedParameters params,
                            target.session->Suggest(config, options));
  JsonWriter w;
  w.BeginObject();
  w.Key("tau").Int(params.size_threshold);
  w.Key("global_level").Double(params.global_level);
  w.Key("alpha").Double(params.alpha);
  w.Key("lower_steps");
  api::WriteStepsJson(w, params.global_bounds.lower);
  w.Key("groups_at_kmax_global").Uint(params.groups_at_kmax_global);
  w.Key("groups_at_kmax_prop").Uint(params.groups_at_kmax_prop);
  w.EndObject();
  return w.str();
}

Result<std::string> JsonlService::HandleVerify(const Target& target,
                                               const JsonValue& request) {
  FAIRTOPK_ASSIGN_OR_RETURN(api::AuditRequest query,
                            DecodeRequest(request, *target.defaults));
  const JsonValue* group = request.Find("group");
  if (group == nullptr) {
    return Status::InvalidArgument("'verify' requires a 'group' object");
  }
  FAIRTOPK_ASSIGN_OR_RETURN(Pattern pattern,
                            PatternField(*group, target.session->space()));
  FAIRTOPK_ASSIGN_OR_RETURN(
      FairnessReport report,
      std::holds_alternative<GlobalBoundSpec>(query.bounds)
          ? target.session->VerifyGlobal(
                pattern, std::get<GlobalBoundSpec>(query.bounds),
                query.config)
          : target.session->VerifyProp(pattern,
                                       std::get<PropBoundSpec>(query.bounds),
                                       query.config));
  JsonWriter w;
  w.BeginObject();
  w.Key("group").Raw(PatternToJson(report.group, target.session->space()));
  w.Key("size").Uint(report.size_in_d);
  w.Key("fair").Bool(report.fair());
  w.Key("violations").BeginArray();
  for (const FairnessViolation& v : report.violations) {
    w.BeginObject();
    w.Key("k").Int(v.k);
    w.Key("count").Uint(v.count);
    w.Key("lower").Double(v.lower);
    w.Key("upper").Double(v.upper);
    w.Key("below_lower").Bool(v.below_lower);
    w.Key("above_upper").Bool(v.above_upper);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

Result<std::string> JsonlService::HandleRerank(const Target& target,
                                               const JsonValue& request,
                                               metrics::TraceSink* trace) {
  FAIRTOPK_ASSIGN_OR_RETURN(api::AuditRequest query,
                            DecodeRequest(request, *target.defaults));
  query.trace = trace;
  FAIRTOPK_ASSIGN_OR_RETURN(const api::DetectorDescriptor* descriptor,
                            api::ResolveRequest(query));
  if (!descriptor->lower_violations) {
    // Over-represented groups must never become representation floors:
    // the repair would guarantee MORE of exactly the groups detected
    // as exceeding their bound. Checked before the (expensive,
    // cache-filling) detection runs.
    return Status::InvalidArgument(
        "'rerank' requires a lower-bound detector ('" + descriptor->name +
        "' reports over-represented groups)");
  }
  FAIRTOPK_ASSIGN_OR_RETURN(api::AuditResponse detected,
                            target.session->Detect(query));
  // Detected groups become representation floors, as in
  // fairtopk_audit --rerank.
  std::vector<RepresentationConstraint> constraints;
  {
    // Pin the index for the proportional floor's group counts; the
    // lock is dropped before Repair (which takes it internally).
    auto read_guard = target.session->ReadLock();
    constraints = api::RepairConstraints(*detected.result, query.bounds,
                                         target.session->input());
  }
  FAIRTOPK_ASSIGN_OR_RETURN(RepairOutcome repair,
                            target.session->Repair(constraints, query.config));
  JsonWriter w;
  w.BeginObject();
  w.Key("constraints").Uint(constraints.size());
  w.Key("tuples_moved").Uint(repair.tuples_moved);
  w.Key("kendall_tau_distance").Uint(repair.kendall_tau_distance);
  w.Key("feasible").Bool(repair.feasible);
  w.Key("unsatisfied").BeginArray();
  for (const Pattern& p : repair.unsatisfied) {
    w.Raw(PatternToJson(p, target.session->space()));
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

Result<std::string> JsonlService::HandleUpdate(const Target& target,
                                               const JsonValue& request) {
  const JsonValue* scores = request.Find("scores");
  if (scores == nullptr || !scores->is_array()) {
    return Status::InvalidArgument(
        "'update' requires 'scores': [[row, score], ...]");
  }
  std::vector<ScoreUpdate> updates;
  updates.reserve(scores->array_items().size());
  for (const JsonValue& item : scores->array_items()) {
    if (!item.is_array() || item.array_items().size() != 2 ||
        !item.array_items()[0].is_number() ||
        !item.array_items()[1].is_number()) {
      return Status::InvalidArgument("score updates must be [row, score]");
    }
    const double row = item.array_items()[0].number_value();
    if (row < 0 || row != std::floor(row) ||
        row > static_cast<double>(
                  std::numeric_limits<uint32_t>::max())) {
      return Status::InvalidArgument("row ids must be non-negative integers");
    }
    updates.push_back({static_cast<uint32_t>(row),
                       item.array_items()[1].number_value()});
  }
  // Wire contract: duplicate rows inside one batch are last-write-wins
  // (documented in README's protocol section). Collapsed here so the
  // session only ever sees one entry per row, independent of which
  // re-rank strategy it picks.
  {
    std::unordered_map<uint32_t, size_t> position;
    position.reserve(updates.size());
    size_t kept = 0;
    for (const ScoreUpdate& u : updates) {
      auto [it, inserted] = position.emplace(u.row, kept);
      if (inserted) {
        updates[kept++] = u;
      } else {
        updates[it->second].score = u.score;
      }
    }
    updates.resize(kept);
  }
  // Per-call report: with concurrent update/append requests in flight,
  // diffing the global counters would attribute another request's
  // maintenance to this one.
  MaintenanceReport report;
  FAIRTOPK_RETURN_IF_ERROR(
      target.session->ApplyScoreUpdates(updates, &report));
  JsonWriter w;
  w.BeginObject();
  w.Key("rows_updated").Uint(updates.size());
  WriteMaintenance(w, report);
  w.EndObject();
  return w.str();
}

Result<std::string> JsonlService::HandleAppend(const Target& target,
                                               const JsonValue& request) {
  const JsonValue* rows = request.Find("rows");
  if (rows == nullptr || !rows->is_array()) {
    return Status::InvalidArgument(
        "'append' requires 'rows': [{column: value, ...}, ...]");
  }
  const Schema& schema = target.session->table().schema();
  std::vector<std::vector<Cell>> cells;
  cells.reserve(rows->array_items().size());
  for (const JsonValue& row : rows->array_items()) {
    if (!row.is_object()) {
      return Status::InvalidArgument("each appended row must be an object");
    }
    std::vector<Cell> out(schema.size());
    for (size_t c = 0; c < schema.size(); ++c) {
      const AttributeSchema& attr = schema.attribute(c);
      const JsonValue* cell = row.Find(attr.name);
      if (cell == nullptr) {
        return Status::InvalidArgument("appended row misses column '" +
                                       attr.name + "'");
      }
      if (attr.type == AttributeType::kCategorical) {
        if (!cell->is_string()) {
          return Status::InvalidArgument("column '" + attr.name +
                                         "' takes a string label");
        }
        auto code = schema.CodeOf(c, cell->string_value());
        if (!code.has_value()) {
          return Status::NotFound("label '" + cell->string_value() +
                                  "' not in the domain of '" + attr.name +
                                  "'");
        }
        out[c] = Cell::Code(*code);
      } else {
        if (!cell->is_number()) {
          return Status::InvalidArgument("column '" + attr.name +
                                         "' takes a number");
        }
        out[c] = Cell::Value(cell->number_value());
      }
    }
    cells.push_back(std::move(out));
  }
  MaintenanceReport report;
  FAIRTOPK_RETURN_IF_ERROR(target.session->AppendRows(cells, &report));
  JsonWriter w;
  w.BeginObject();
  w.Key("rows_appended").Uint(cells.size());
  w.Key("num_rows").Uint(target.session->num_rows());
  WriteMaintenance(w, report);
  w.EndObject();
  return w.str();
}

Result<std::string> JsonlService::HandleStats(const Target& target,
                                              const JsonValue&) {
  const SessionServiceStats stats = target.session->service_stats();
  JsonWriter w;
  w.BeginObject();
  w.Key("num_rows").Uint(target.session->num_rows());
  w.Key("pattern_attributes").Uint(target.session->space().num_attributes());
  // Which bitset kernel variant this process dispatched to at startup
  // (scalar/avx2/avx512/neon; see index/kernels/kernels.h).
  w.Key("kernel").String(kernels::ActiveName());
  w.Key("cache_entries").Uint(target.session->cache_size());
  w.Key("detect_queries").Uint(stats.detect_queries);
  w.Key("cache_hits").Uint(stats.cache_hits);
  w.Key("coalesced_hits").Uint(stats.coalesced_hits);
  w.Key("score_updates").Uint(stats.score_updates);
  w.Key("appends").Uint(stats.appends);
  w.Key("rows_appended").Uint(stats.rows_appended);
  w.Key("index_patches").Uint(stats.index_patches);
  w.Key("index_rebuilds").Uint(stats.index_rebuilds);
  w.Key("positions_patched").Uint(stats.positions_patched);
  // Server-level info, so a client no longer cross-references
  // capabilities + list to reconstruct the process view.
  w.Key("server").BeginObject();
  w.Key("uptime_seconds").Double(metrics::UptimeSeconds());
  w.Key("kernel").String(kernels::ActiveName());
  w.Key("workers").Int(server_workers_);
  w.Key("sessions").Uint(catalog_ != nullptr ? catalog_->size() : 1);
  w.EndObject();
  w.Key("storage");
  WriteStorageInfo(w, target.session->storage_info());
  w.EndObject();
  return w.str();
}

Result<std::string> JsonlService::HandleMetrics(const JsonValue&) {
  return metrics::MetricsRegistry::Global().RenderJson();
}

Result<std::string> JsonlService::HandleInvalidate(const Target& target,
                                                   const JsonValue&) {
  target.session->InvalidateCache();
  JsonWriter w;
  w.BeginObject();
  w.Key("cache_entries").Uint(target.session->cache_size());
  w.EndObject();
  return w.str();
}

Result<std::string> JsonlService::HandleSave(const Target& target,
                                             const JsonValue& request) {
  const JsonValue* path = request.Find("path");
  if (path != nullptr) {
    if (!path->is_string() || path->string_value().empty()) {
      return Status::InvalidArgument("'path' must be a non-empty string");
    }
    FAIRTOPK_RETURN_IF_ERROR(
        target.session->SaveSnapshot(path->string_value()));
  } else {
    FAIRTOPK_RETURN_IF_ERROR(target.session->SaveSnapshot());
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("storage");
  WriteStorageInfo(w, target.session->storage_info());
  w.EndObject();
  return w.str();
}

Result<std::string> JsonlService::HandleSnapshotInfo(const Target& target,
                                                     const JsonValue&) {
  JsonWriter w;
  w.BeginObject();
  w.Key("storage");
  WriteStorageInfo(w, target.session->storage_info());
  w.EndObject();
  return w.str();
}

Result<std::string> JsonlService::HandleOpen(const JsonValue& request) {
  if (catalog_ == nullptr) {
    return Status::FailedPrecondition(
        "this service has no session catalog (single-session mode)");
  }
  FAIRTOPK_ASSIGN_OR_RETURN(std::string name,
                            RequiredString(request, "name", "open"));
  FAIRTOPK_ASSIGN_OR_RETURN(SessionSpec spec, SessionSpecFromJson(request));
  FAIRTOPK_RETURN_IF_ERROR(catalog_->Open(name, spec));
  std::shared_ptr<SessionCatalog::Entry> entry = catalog_->Find(name);
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String(name);
  if (entry != nullptr) {  // a concurrent close may already have won
    w.Key("num_rows").Uint(entry->session.num_rows());
    w.Key("pattern_attributes")
        .Uint(entry->session.space().num_attributes());
  }
  w.EndObject();
  return w.str();
}

Result<std::string> JsonlService::HandleClose(const JsonValue& request) {
  if (catalog_ == nullptr) {
    return Status::FailedPrecondition(
        "this service has no session catalog (single-session mode)");
  }
  FAIRTOPK_ASSIGN_OR_RETURN(std::string name,
                            RequiredString(request, "name", "close"));
  FAIRTOPK_RETURN_IF_ERROR(catalog_->Close(name));
  JsonWriter w;
  w.BeginObject();
  w.Key("closed").String(name);
  w.EndObject();
  return w.str();
}

Result<std::string> JsonlService::HandleList(const JsonValue&,
                                             Context& context) {
  if (catalog_ == nullptr) {
    return Status::FailedPrecondition(
        "this service has no session catalog (single-session mode)");
  }
  std::string current = context.current();
  if (current.empty()) current = default_session_;
  JsonWriter w;
  w.BeginObject();
  w.Key("current").String(current);
  w.Key("sessions").BeginArray();
  for (const SessionCatalog::Info& info : catalog_->List()) {
    w.BeginObject();
    w.Key("name").String(info.name);
    w.Key("dataset").String(info.dataset);
    w.Key("num_rows").Uint(info.num_rows);
    w.Key("pattern_attributes").Uint(info.pattern_attributes);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

Result<std::string> JsonlService::HandleUse(const JsonValue& request,
                                            Context& context) {
  if (catalog_ == nullptr) {
    return Status::FailedPrecondition(
        "this service has no session catalog (single-session mode)");
  }
  FAIRTOPK_ASSIGN_OR_RETURN(std::string name,
                            RequiredString(request, "name", "use"));
  if (catalog_->Find(name) == nullptr) {
    return Status::NotFound("no session named '" + name +
                            "' (see op=list)");
  }
  context.set_current(name);
  JsonWriter w;
  w.BeginObject();
  w.Key("session").String(name);
  w.EndObject();
  return w.str();
}

Result<std::string> JsonlService::Dispatch(const std::string& op,
                                           const JsonValue& request,
                                           Context& context,
                                           metrics::TraceSink* trace) {
  // Catalog lifecycle ops (and the process-level ops) do not run
  // against a session.
  if (op == "open") return HandleOpen(request);
  if (op == "close") return HandleClose(request);
  if (op == "list") return HandleList(request, context);
  if (op == "use") return HandleUse(request, context);
  if (op == "capabilities") return HandleCapabilities(request);
  if (op == "metrics") return HandleMetrics(request);
  FAIRTOPK_ASSIGN_OR_RETURN(Target target, ResolveTarget(request, context));
  if (op == "detect") return HandleDetect(target, request, trace);
  if (op == "detect_batch") return HandleDetectBatch(target, request, trace);
  if (op == "suggest") return HandleSuggest(target, request);
  if (op == "verify") return HandleVerify(target, request);
  if (op == "rerank") return HandleRerank(target, request, trace);
  if (op == "update") return HandleUpdate(target, request);
  if (op == "append") return HandleAppend(target, request);
  if (op == "stats") return HandleStats(target, request);
  if (op == "invalidate") return HandleInvalidate(target, request);
  if (op == "save") return HandleSave(target, request);
  if (op == "snapshot_info") return HandleSnapshotInfo(target, request);
  return Status::InvalidArgument(
      op.empty() ? "request misses 'op'" : "unknown op '" + op + "'");
}

void JsonlService::WriteSlowQueryLine(const JsonValue* request,
                                      const char* op_label, uint64_t micros,
                                      const metrics::RequestTrace& trace) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("slow_query").Bool(true);
  if (request != nullptr) {
    WriteId(w, *request);
  } else {
    w.Key("id").Null();
  }
  w.Key("op").String(op_label);
  w.Key("micros").Uint(micros);
  w.Key("threshold_micros").Uint(observability_.slow_query_log_micros);
  trace.WriteJsonMembers(w);
  w.EndObject();
  // One process-wide lock: slow lines from concurrent workers (and
  // from several services sharing stderr) must never interleave.
  static std::mutex* log_mutex = new std::mutex();
  std::ostream& out = observability_.slow_query_stream != nullptr
                          ? *observability_.slow_query_stream
                          : std::cerr;
  std::lock_guard<std::mutex> lock(*log_mutex);
  out << w.str() << '\n';
  out.flush();
}

std::string JsonlService::HandleLine(const std::string& line,
                                     Context& context) {
  const uint64_t slow_threshold = observability_.slow_query_log_micros;
  metrics::RequestTrace trace_storage;
  metrics::TraceSink* trace =
      slow_threshold > 0 ? &trace_storage : nullptr;
  WallTimer total;

  Result<JsonValue> request = [&] {
    metrics::SpanTimer span(trace, "parse");
    return ParseJson(line);
  }();

  std::string op;
  std::string response;
  const char* error_code = nullptr;
  bool valid_object = false;
  if (!request.ok()) {
    error_code = StatusCodeName(request.status().code());
    response = ErrorResponse(JsonValue::Null(), request.status());
  } else if (!request->is_object()) {
    const Status status =
        Status::InvalidArgument("request must be a JSON object");
    error_code = StatusCodeName(status.code());
    response = ErrorResponse(*request, status);
  } else {
    valid_object = true;
    op = request->StringOr("op", "");
    Result<std::string> data = Dispatch(op, *request, context, trace);
    if (!data.ok()) {
      error_code = StatusCodeName(data.status().code());
      response = ErrorResponse(*request, data.status());
    } else {
      response = OkResponse(*request, *data);
    }
  }

  const uint64_t micros = total.ElapsedMicros();
  const char* op_label = OpLabel(op);
  ServiceMetrics& m = ServiceMetrics::Get();
  m.requests.With({op_label}).Inc();
  m.latency.With({op_label}).Observe(micros);
  if (error_code != nullptr) m.errors.With({op_label, error_code}).Inc();
  if (trace != nullptr && micros >= slow_threshold) {
    m.slow.With({op_label}).Inc();
    WriteSlowQueryLine(valid_object ? &*request : nullptr, op_label, micros,
                       trace_storage);
  }
  return response;
}

std::string JsonlService::HandleLine(const std::string& line) {
  Context context;
  return HandleLine(line, context);
}

namespace {

/// True for a line of nothing but spaces, tabs and carriage returns.
/// Both front-ends skip such lines, so hand-written scripts can use
/// blank lines (and CRLF endings) for readability.
bool IsBlank(std::string_view line) {
  for (char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

}  // namespace

void JsonlService::ServeStream(const LineSource& next_line,
                               const LineSink& write_line, Executor& executor,
                               size_t max_pending, Context& context) {
  // The calling thread reads and admits lines, the executor runs them,
  // and each completion files its response in a reorder buffer keyed by
  // admission sequence, then writes out the run that became ready. The
  // window bounds admitted-but-unemitted lines (sequence -
  // next_to_emit), which counts the reorder buffer too: one slow early
  // request throttles reading instead of letting `held` absorb the rest
  // of the stream. Requests are leaves (HandleLine never blocks on
  // another request), satisfying the pool's deadlock rule.
  max_pending = std::max<size_t>(max_pending, 1);
  std::mutex mutex;
  std::condition_variable room;  // signaled whenever responses are emitted
  size_t sequence = 0;           // lines admitted
  size_t next_to_emit = 0;       // sequence of the next response to write
  std::map<size_t, std::string> held;  // answered, awaiting predecessors
  bool write_failed = false;
  std::string line;
  while (next_line(line)) {
    if (IsBlank(line)) continue;
    size_t seq = 0;
    {
      std::unique_lock<std::mutex> lock(mutex);
      const auto admissible = [&] {
        return sequence - next_to_emit < max_pending;
      };
      if (!admissible()) ServiceMetrics::Get().backpressure_stalls.Inc();
      room.wait(lock, admissible);
      seq = sequence++;
    }
    executor.Submit([&, seq, line = std::move(line)] {
      std::string response = HandleLine(line, context);
      response.push_back('\n');
      std::lock_guard<std::mutex> lock(mutex);
      held.emplace(seq, std::move(response));
      ServiceMetrics::Get().reorder_depth.Inc();
      while (!held.empty() && held.begin()->first == next_to_emit) {
        // The reader may be gone (a client that hung up after a
        // one-shot script, a closed stdout): stop writing, but keep
        // draining so every admitted line is answered and the loop
        // can return.
        if (!write_failed && !write_line(held.begin()->second)) {
          write_failed = true;
        }
        held.erase(held.begin());
        ++next_to_emit;
        ServiceMetrics::Get().reorder_depth.Dec();
      }
      room.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  room.wait(lock, [&] { return next_to_emit == sequence; });
}

void JsonlService::Serve(std::istream& in, std::ostream& out,
                         const ServeOptions& options) {
  const int workers = std::max(options.workers, 1);
  std::unique_ptr<Executor> executor;
  if (workers > 1) {
    executor = std::make_unique<ThreadPool>(workers);
  } else {
    executor = std::make_unique<InlineExecutor>();
  }
  Context context;
  ServeStream(
      [&in](std::string& line) {
        return static_cast<bool>(std::getline(in, line));
      },
      [&out](std::string_view response) {
        out.write(response.data(),
                  static_cast<std::streamsize>(response.size()));
        out.flush();
        return static_cast<bool>(out);
      },
      *executor,
      options.max_pending != 0 ? options.max_pending
                               : static_cast<size_t>(workers) * 4,
      context);
}

}  // namespace fairtopk
