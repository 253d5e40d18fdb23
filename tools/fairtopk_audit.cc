// fairtopk_audit: end-to-end ranked-representation audit of a CSV file.
//
// Usage:
//   fairtopk_audit --csv data.csv --rank-by score [options]
//
// Pipeline: open an AuditSession through OpenSession (the builder
// shared with fairtopk_serve and the JSONL `open` op; the session flags
// come from its field table in service/session_spec.h): load the CSV
// (numeric columns inferred), bucketize numeric attributes so they can
// participate in group definitions, and rank by the requested score
// column (descending by default) — or restore a saved snapshot. Then
// detect groups with biased representation under the chosen detector
// (resolved from the api::DetectorRegistry by --measure x --algo) and
// print a text report (or JSON with --json). Optionally verifies one
// declared group, calibrates the bounds, repairs the ranking, or
// explains the most biased group via the Shapley pipeline. `--help`
// prints the flag table.
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "api/audit.h"
#include "api/canonical.h"
#include "common/flags.h"
#include "common/strings.h"
#include "detect/presentation.h"
#include "explain/group_explainer.h"
#include "mitigate/rerank.h"
#include "relation/csv.h"
#include "report/json_report.h"
#include "service/session_spec.h"

namespace fairtopk {
namespace {

struct Args {
  SessionSpec spec;
  std::string measure = "prop";
  std::string algo = "bounds";
  double beta = std::numeric_limits<double>::infinity();
  double upper = std::numeric_limits<double>::infinity();
  bool suggest = false;
  bool explain = false;
  bool json = false;
  std::string verify_group;
  std::string rerank_path;
  std::string save_snapshot;  ///< write the opened session here
};

/// The audit flags; the session flags come from the session table.
std::vector<Flag> AuditFlags(Args& args) {
  return {
      {"--measure", "global|prop", "fairness measure (default: prop)",
       &args.measure},
      {"--algo", "itertd|bounds|upper",
       "detection algorithm within the measure (default: bounds; itertd "
       "is the paper baseline, upper reports over-represented groups)",
       &args.algo},
      {"--beta", "X",
       "proportional upper multiplier (default +inf; used by --algo "
       "upper and verification)",
       &args.beta},
      {"--upper", "X",
       "constant global upper bound (default +inf; used by --algo upper "
       "and verification)",
       &args.upper},
      {"--suggest", "", "calibrate bounds automatically", &args.suggest},
      {"--explain", "", "Shapley-explain the most biased group",
       &args.explain},
      {"--json", "", "emit the detection report as JSON", &args.json},
      {"--verify", "\"A=v;B=w\"",
       "instead of detecting, verify the given group against the bounds "
       "and report the violating k values",
       &args.verify_group},
      {"--rerank", "PATH",
       "after detection, repair the ranking so the detected groups meet "
       "the bounds and write the re-ranked table to PATH as CSV",
       &args.rerank_path},
      {"--save-snapshot", "PATH",
       "after opening the session, write it to PATH as a snapshot for "
       "later snapshot opens and fairtopk_serve data directories",
       &args.save_snapshot},
  };
}

void PrintUsage(std::FILE* out, Args& args) {
  std::fprintf(out,
               "usage: fairtopk_audit [session options] [audit options]\n"
               "\n"
               "Audits one session: a CSV with its ranking column, or a "
               "snapshot.\n"
               "\n"
               "Session options (the same table as fairtopk_serve and "
               "`open`):\n");
  PrintFlagUsage(out, SessionFlags(kAuditFlags, args.spec));
  std::fprintf(out, "\nAudit options:\n");
  PrintFlagUsage(out, AuditFlags(args));
  std::fprintf(out, "  --help                 print this message and exit\n");
}

/// Checks the parsed flags as a whole and resolves the detector.
Status ValidateArgs(const Args& args,
                    const api::DetectorDescriptor** detector) {
  // A snapshot open carries its own ranking column and direction.
  FAIRTOPK_RETURN_IF_ERROR(CheckSessionSource(args.spec));
  // One registry lookup validates the (measure, algo) matrix — no
  // hand-maintained flag table to drift from the detector set.
  FAIRTOPK_ASSIGN_OR_RETURN(
      *detector,
      api::DetectorRegistry::Global().Resolve(args.measure, args.algo));
  if (!(*detector)->lower_violations) {
    // An upper detector with its bound left at +inf can only report
    // nothing — refuse instead of printing a silently empty audit.
    const bool global = (*detector)->bounds_kind == api::BoundsKind::kGlobal;
    if (std::isinf(global ? args.upper : args.beta)) {
      return Status::InvalidArgument(
          std::string("--algo upper needs an upper bound: pass ") +
          (global ? "--upper X" : "--beta X"));
    }
    // Over-represented groups must never become representation floors.
    if (!args.rerank_path.empty()) {
      return Status::InvalidArgument(
          "--rerank requires a lower-bound detector (--algo upper reports "
          "over-represented groups)");
    }
  }
  return Status::OK();
}

/// Parses "Attr=value;Attr2=value2" into a pattern over `space`.
Result<Pattern> ParseGroupSpec(const std::string& spec,
                               const PatternSpace& space) {
  std::vector<std::pair<std::string, std::string>> labels;
  for (const std::string& term : Split(spec, ';')) {
    auto parts = Split(term, '=');
    if (parts.size() != 2) {
      return Status::InvalidArgument("bad group term: " + term);
    }
    labels.emplace_back(Trim(parts[0]), Trim(parts[1]));
  }
  return PatternFromLabels(labels, space);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

int RunAudit(const Args& args, const api::DetectorDescriptor& detector) {
  // A snapshot open restores the table, ranking and index exactly as
  // saved — no parse, no bucketize, no index build.
  Result<OpenedSession> opened = OpenSession(args.spec);
  if (!opened.ok()) return Fail(opened.status());
  AuditSession& session = opened->session;
  const DetectionInput& input = session.input();
  const Table& table = session.table();

  if (!args.save_snapshot.empty()) {
    if (Status saved = session.SaveSnapshot(args.save_snapshot); !saved.ok()) {
      return Fail(saved);
    }
    std::fprintf(stderr, "snapshot written to %s (%llu bytes)\n",
                 args.save_snapshot.c_str(),
                 static_cast<unsigned long long>(
                     session.storage_info().snapshot_bytes));
  }

  // The typed request: detector by registry name, config and bounds
  // from the session's defaults through the canonical builders.
  api::AuditRequest request;
  request.detector = detector.name;
  request.config = opened->defaults.config;
  Result<api::BoundsSpec> bounds = api::BoundsFromDefaults(
      detector.bounds_kind, opened->defaults.bounds, request.config);
  if (!bounds.ok()) return Fail(bounds.status());
  request.bounds = std::move(bounds).value();

  if (args.suggest) {
    auto suggestion = session.Suggest(request.config, SuggestOptions{});
    if (!suggestion.ok()) return Fail(suggestion.status());
    request.config.size_threshold = suggestion->size_threshold;
    if (std::holds_alternative<GlobalBoundSpec>(request.bounds)) {
      request.bounds = suggestion->global_bounds;
    } else {
      PropBoundSpec prop;
      prop.alpha = suggestion->alpha;
      request.bounds = prop;
    }
    std::fprintf(stderr,
                 "suggested: tau=%d global_level=%.2f alpha=%.2f\n",
                 suggestion->size_threshold, suggestion->global_level,
                 suggestion->alpha);
  }

  // The upper-bound knobs ride on top of the lower-bound expansion
  // (both default to +inf, i.e. disabled) — applied after the suggest
  // override, which calibrates only the lower side, so --upper/--beta
  // survive --suggest.
  if (auto* global = std::get_if<GlobalBoundSpec>(&request.bounds)) {
    global->upper = StepFunction::Constant(args.upper);
  } else {
    std::get<PropBoundSpec>(request.bounds).beta = args.beta;
  }

  if (!args.verify_group.empty()) {
    // Verification mode: check one declared group, skip detection.
    Result<Pattern> group = ParseGroupSpec(args.verify_group, input.space());
    if (!group.ok()) return Fail(group.status());
    Result<FairnessReport> report =
        std::holds_alternative<GlobalBoundSpec>(request.bounds)
            ? session.VerifyGlobal(*group,
                                   std::get<GlobalBoundSpec>(request.bounds),
                                   request.config)
            : session.VerifyProp(*group,
                                 std::get<PropBoundSpec>(request.bounds),
                                 request.config);
    if (!report.ok()) return Fail(report.status());
    std::printf("group %s: size=%zu, %s\n",
                group->ToString(input.space()).c_str(), report->size_in_d,
                report->fair() ? "FAIR across the whole k range" : "BIASED");
    for (const FairnessViolation& v : report->violations) {
      std::printf("  k=%d count=%zu bounds=[%.2f, %s]%s%s\n", v.k,
                  v.count, v.lower,
                  std::isinf(v.upper) ? "inf"
                                      : FormatDouble(v.upper, 2).c_str(),
                  v.below_lower ? " BELOW" : "",
                  v.above_upper ? " ABOVE" : "");
    }
    return report->fair() ? 0 : 3;
  }

  Result<api::AuditResponse> response = session.Detect(request);
  if (!response.ok()) return Fail(response.status());
  const DetectionResult& detected = *response->result;

  // Per-k presentation annotations against the request's bounds kind.
  auto annotate = [&](int k) {
    if (const auto* global = std::get_if<GlobalBoundSpec>(&request.bounds)) {
      return AnnotateGlobal(detected, input, *global, k,
                            GroupOrder::kByBiasDesc);
    }
    return AnnotateProp(detected, input,
                        std::get<PropBoundSpec>(request.bounds), k,
                        GroupOrder::kByBiasDesc);
  };

  if (args.json) {
    ReportContext context{opened->defaults.dataset, api::MeasureLabel(detector),
                          detector.name};
    std::printf("%s\n", DetectionResultToJson(detected, input, context).c_str());
  } else {
    for (int k = request.config.k_min; k <= request.config.k_max; ++k) {
      if (detected.AtK(k).empty()) continue;
      std::printf("%s", RenderReport(annotate(k), input.space(), k).c_str());
    }
  }

  if (!args.rerank_path.empty()) {
    // Repair mode: detected groups become representation floors.
    Result<RepairOutcome> repair = session.Repair(
        api::RepairConstraints(detected, request.bounds, input),
        request.config);
    if (!repair.ok()) return Fail(repair.status());
    std::fprintf(stderr,
                 "repair: moved=%zu kendall_tau=%llu feasible=%s\n",
                 repair->tuples_moved,
                 static_cast<unsigned long long>(
                     repair->kendall_tau_distance),
                 repair->feasible ? "yes" : "no");
    // Persist the table in repaired rank order, with an explicit
    // `repaired_rank` column so the ordering survives re-ranking
    // (audit the file again with `--rank-by repaired_rank
    // --ascending`).
    Result<Table> reordered = [&]() -> Result<Table> {
      Schema schema = table.schema();
      FAIRTOPK_RETURN_IF_ERROR(schema.AddNumeric("repaired_rank"));
      FAIRTOPK_ASSIGN_OR_RETURN(Table out, Table::Create(schema));
      std::vector<Cell> row(table.num_attributes() + 1);
      double rank = 1.0;
      for (uint32_t r : repair->ranking) {
        for (size_t c = 0; c < table.num_attributes(); ++c) {
          row[c] = table.schema().attribute(c).type ==
                           AttributeType::kCategorical
                       ? Cell::Code(table.CodeAt(r, c))
                       : Cell::Value(table.ValueAt(r, c));
        }
        row[table.num_attributes()] = Cell::Value(rank);
        rank += 1.0;
        FAIRTOPK_RETURN_IF_ERROR(out.AppendRow(row));
      }
      return out;
    }();
    if (!reordered.ok()) return Fail(reordered.status());
    Status written = WriteCsvFile(*reordered, args.rerank_path);
    if (!written.ok()) return Fail(written);
    std::fprintf(stderr, "repaired ranking written to %s\n",
                 args.rerank_path.c_str());
  }

  if (args.explain) {
    const int k = request.config.k_max;
    auto groups = annotate(k);
    if (groups.empty()) {
      std::fprintf(stderr, "nothing to explain at k=%d\n", k);
      return 0;
    }
    auto explainer =
        GroupExplainer::Create(table, session.ranking(), ExplainerOptions{});
    if (!explainer.ok()) return Fail(explainer.status());
    auto explanation =
        explainer->Explain(groups.front().pattern, input.space(), k);
    if (!explanation.ok()) return Fail(explanation.status());
    if (args.json) {
      std::printf("%s\n",
                  ExplanationToJson(*explanation, input.space()).c_str());
    } else {
      std::printf("\nExplanation for %s (top attributes by |Shapley|):\n",
                  groups.front().pattern.ToString(input.space()).c_str());
      for (size_t i = 0; i < explanation->effects.size() && i < 6; ++i) {
        std::printf("  %-20s %+.4f\n",
                    explanation->effects[i].attribute.c_str(),
                    explanation->effects[i].mean_shapley);
      }
      std::printf("\n%s",
                  RenderDistribution(
                      explanation->top_attribute_distribution)
                      .c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace fairtopk

int main(int argc, char** argv) {
  fairtopk::Args args;
  std::vector<fairtopk::Flag> flags =
      fairtopk::SessionFlags(fairtopk::kAuditFlags, args.spec);
  for (fairtopk::Flag& flag : fairtopk::AuditFlags(args)) {
    flags.push_back(std::move(flag));
  }
  bool help = false;
  fairtopk::Status parsed = fairtopk::ParseFlags(argc, argv, flags, &help);
  if (help) {
    fairtopk::PrintUsage(stdout, args);
    return 0;
  }
  const fairtopk::api::DetectorDescriptor* detector = nullptr;
  if (parsed.ok()) parsed = fairtopk::ValidateArgs(args, &detector);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    fairtopk::PrintUsage(stderr, args);
    return 2;
  }
  return fairtopk::RunAudit(args, *detector);
}
