// Unit tests for the session field table (src/service/session_spec.h):
// the option set each front end accepts, the strict flag parser built
// from it, and the `open` op's JSON decoder.
#include "service/session_spec.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"

namespace fairtopk {
namespace {

std::set<std::string> FlagNames(FrontEnd front_end) {
  SessionSpec spec;
  std::set<std::string> names;
  for (const Flag& flag : SessionFlags(front_end, spec)) {
    names.insert(flag.name);
  }
  return names;
}

std::set<std::string> OpenKeys() {
  std::set<std::string> keys;
  for (const SessionField& field : SessionFields()) {
    if ((field.front_ends & kOpenOp) != 0) keys.insert(field.key);
  }
  return keys;
}

/// Parses `args` (without argv[0]) as `front_end` flags into `spec`.
Status Parse(FrontEnd front_end, std::vector<std::string> args,
             SessionSpec& spec) {
  std::vector<char*> argv = {const_cast<char*>("tool")};
  for (std::string& arg : args) argv.push_back(arg.data());
  bool help = false;
  return ParseFlags(static_cast<int>(argv.size()), argv.data(),
                    SessionFlags(front_end, spec), &help);
}

Result<SessionSpec> FromJson(const std::string& text) {
  Result<JsonValue> parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return SessionSpecFromJson(*parsed);
}

TEST(SessionSpecTest, FrontEndsAcceptTheirOptionSets) {
  EXPECT_EQ(FlagNames(kAuditFlags),
            (std::set<std::string>{"--csv", "--rank-by", "--ascending",
                                   "--bins", "--drop", "--kmin", "--kmax",
                                   "--tau", "--threads", "--lower",
                                   "--alpha", "--snapshot"}));
  EXPECT_EQ(FlagNames(kServeFlags),
            (std::set<std::string>{
                "--csv", "--rank-by", "--ascending", "--bins", "--drop",
                "--kmin", "--kmax", "--tau", "--threads", "--lower",
                "--alpha", "--data-dir", "--fsync-always",
                "--cache-capacity", "--rebuild-threshold"}));
  EXPECT_EQ(OpenKeys(),
            (std::set<std::string>{
                "csv", "rank_by", "ascending", "bins", "drop", "k_min",
                "k_max", "tau", "threads", "lower", "alpha", "snapshot",
                "data_dir", "fsync_always", "cache_capacity",
                "rebuild_threshold"}));
}

TEST(SessionSpecTest, EveryRowOwnsADistinctField) {
  // Each row's slot lands on its own SessionSpec member: no two keys
  // alias one field, and none is left out of the table.
  SessionSpec spec;
  std::set<const void*> targets;
  for (const SessionField& field : SessionFields()) {
    const FlagSlot slot = field.slot(spec);
    targets.insert(std::visit([](auto* p) -> const void* { return p; }, slot));
  }
  EXPECT_EQ(targets.size(), SessionFields().size());
  // No SessionSpec field is added without a row: the binding below
  // names every member and stops compiling when one is added.
  auto& [csv, rank_by, snapshot, data_dir, fsync_always, ascending, bins,
         drop, k_min, k_max, tau, threads, lower_fraction, alpha, session] =
      spec;
  (void)csv, (void)rank_by, (void)snapshot, (void)data_dir;
  (void)fsync_always, (void)ascending, (void)bins, (void)drop, (void)k_min;
  (void)k_max, (void)tau, (void)threads, (void)lower_fraction, (void)alpha;
  (void)session;
  EXPECT_EQ(SessionFields().size(), 16u);
}

TEST(SessionSpecTest, FlagsFillTheSpec) {
  SessionSpec spec;
  ASSERT_TRUE(Parse(kServeFlags,
                    {"--csv", "d.csv", "--rank-by", "score", "--ascending",
                     "--drop", "id,name", "--kmin", "5", "--kmax", "20",
                     "--tau", "6", "--threads", "0", "--lower", "0.3",
                     "--alpha", "0.9", "--cache-capacity", "0",
                     "--rebuild-threshold", "0.25", "--fsync-always"},
                    spec)
                  .ok());
  EXPECT_EQ(spec.csv, "d.csv");
  EXPECT_EQ(spec.rank_by, "score");
  EXPECT_TRUE(spec.ascending);
  EXPECT_EQ(spec.drop, (std::vector<std::string>{"id", "name"}));
  EXPECT_EQ(spec.k_min, 5);
  EXPECT_EQ(spec.k_max, 20);
  EXPECT_EQ(spec.tau, 6);
  EXPECT_EQ(spec.threads, 0);
  EXPECT_DOUBLE_EQ(spec.lower_fraction, 0.3);
  EXPECT_DOUBLE_EQ(spec.alpha, 0.9);
  EXPECT_EQ(spec.session.cache_capacity, 0u);
  EXPECT_DOUBLE_EQ(spec.session.rebuild_threshold, 0.25);
  EXPECT_TRUE(spec.fsync_always);
}

TEST(SessionSpecTest, MalformedFlagValuesAreRejectedByName) {
  // fairtopk_audit's --tau abc and --kmin 5x are covered end to end
  // by cli_test; these are the other value kinds and the flag errors.
  SessionSpec spec;
  Status status = Parse(kServeFlags, {"--alpha", "x"}, spec);
  EXPECT_EQ(status.message(), "--alpha expects a number, got 'x'");
  status = Parse(kServeFlags, {"--rebuild-threshold", "2"}, spec);
  EXPECT_EQ(status.message(),
            "--rebuild-threshold expects a number in [0, 1], got '2'");
  status = Parse(kServeFlags, {"--bins", "1"}, spec);
  EXPECT_FALSE(status.ok());
  status = Parse(kServeFlags, {"--kmax"}, spec);
  EXPECT_EQ(status.message(), "missing value for --kmax");
  // A flag of another front end is unknown here.
  status = Parse(kAuditFlags, {"--data-dir", "d"}, spec);
  EXPECT_EQ(status.message(), "unknown flag: --data-dir");
  status = Parse(kServeFlags, {"--snapshot", "s.ftk"}, spec);
  EXPECT_EQ(status.message(), "unknown flag: --snapshot");
  // Failed parses leave the defaults in place.
  EXPECT_DOUBLE_EQ(spec.alpha, 0.8);
  EXPECT_EQ(spec.bins, 4);
}

TEST(SessionSpecTest, JsonFillsTheSpec) {
  Result<SessionSpec> spec = FromJson(
      R"({"op":"open","name":"n","csv":"d.csv","rank_by":"score",)"
      R"("ascending":true,"bins":3,"drop":["id"],"k_min":5,"k_max":20,)"
      R"("tau":6,"threads":2,"lower":0.3,"alpha":0.9,"cache_capacity":7,)"
      R"("rebuild_threshold":1,"fsync_always":true})");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->csv, "d.csv");
  EXPECT_TRUE(spec->ascending);
  EXPECT_EQ(spec->bins, 3);
  EXPECT_EQ(spec->drop, (std::vector<std::string>{"id"}));
  EXPECT_EQ(spec->k_min, 5);
  EXPECT_EQ(spec->k_max, 20);
  EXPECT_EQ(spec->tau, 6);
  EXPECT_EQ(spec->threads, 2);
  EXPECT_DOUBLE_EQ(spec->lower_fraction, 0.3);
  EXPECT_DOUBLE_EQ(spec->alpha, 0.9);
  EXPECT_EQ(spec->session.cache_capacity, 7u);
  EXPECT_DOUBLE_EQ(spec->session.rebuild_threshold, 1.0);
  EXPECT_TRUE(spec->fsync_always);
}

TEST(SessionSpecTest, JsonErrorsNameTheKey) {
  const std::string source = R"("csv":"d.csv","rank_by":"score")";
  const std::vector<std::pair<std::string, std::string>> cases = {
      // jsonl_service_test covers the mistyped alpha/ascending/lower,
      // the out-of-range k_min/threads and the unknown keys through
      // the `open` op.
      {R"("k_min":0)", "'k_min' expects an integer in [1, 1073741824]"},
      {R"("tau":2.5)", "'tau' expects an integer in [1, 1073741824]"},
      {R"("drop":["a",1])", "'drop' expects an array of strings"},
      {R"("cache_capacity":-1)",
       "'cache_capacity' expects an integer in [0, 1073741824]"},
  };
  for (const auto& [field, message] : cases) {
    Result<SessionSpec> spec = FromJson("{" + source + "," + field + "}");
    ASSERT_FALSE(spec.ok()) << field;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << field;
    EXPECT_EQ(spec.status().message(), message) << field;
  }
}

TEST(SessionSpecTest, SourceIsRequired) {
  EXPECT_FALSE(FromJson(R"({"csv":"d.csv"})").ok());
  EXPECT_FALSE(FromJson(R"({"rank_by":"s"})").ok());
  EXPECT_TRUE(FromJson(R"({"snapshot":"s.ftk"})").ok());
  EXPECT_TRUE(FromJson(R"({"data_dir":"state"})").ok());
  SessionSpec spec;
  EXPECT_FALSE(CheckSessionSource(spec).ok());
  EXPECT_FALSE(OpenSession(spec).ok());
}

}  // namespace
}  // namespace fairtopk
