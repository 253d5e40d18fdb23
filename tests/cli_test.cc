// Integration tests for the fairtopk_audit CLI: drive the real binary
// (path injected by CMake) against a CSV written through the library
// and check exit codes, report output, the repaired-CSV round trip,
// and that its reports equal the JSONL service's for the same session
// description.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "api/detector_registry.h"
#include "common/json.h"
#include "common/rng.h"
#include "relation/csv.h"
#include "relation/table.h"
#include "service/jsonl_service.h"
#include "service/session_catalog.h"

#ifndef FAIRTOPK_AUDIT_PATH
#error "FAIRTOPK_AUDIT_PATH must be defined by the build"
#endif

namespace fairtopk {
namespace {

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

/// Single-quotes `s` for the shell so TMPDIR-derived paths with spaces
/// or metacharacters survive std::system().
std::string Quote(const std::string& s) {
  std::string quoted = "'";
  for (char c : s) {
    if (c == '\'') {
      quoted += "'\\''";
    } else {
      quoted += c;
    }
  }
  quoted += "'";
  return quoted;
}

/// Runs the CLI with `args`, capturing stdout into `out_path` and
/// stderr into `err_path`. Returns the process exit code (-1 on
/// system() failure).
int RunCli(const std::string& args, const std::string& out_path,
           const std::string& err_path = "/dev/null") {
  const std::string command = Quote(FAIRTOPK_AUDIT_PATH) + " " + args + " > " +
                              Quote(out_path) + " 2>" + Quote(err_path);
  const int status = std::system(command.c_str());
  if (status < 0) return -1;
  return WEXITSTATUS(status);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Writes a deterministic biased-demo CSV: females never reach the
/// top because the score penalizes them.
std::string WriteDemoCsv() {
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("gender", {"F", "M"}).ok());
  EXPECT_TRUE(schema.AddCategorical("region", {"north", "south"}).ok());
  EXPECT_TRUE(schema.AddNumeric("score").ok());
  auto table = Table::Create(std::move(schema));
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const int16_t gender = static_cast<int16_t>(rng.UniformUint64(2));
    const int16_t region = static_cast<int16_t>(rng.UniformUint64(2));
    const double score =
        50.0 + (gender == 1 ? 15.0 : 0.0) + rng.Gaussian() * 5.0;
    EXPECT_TRUE(table
                    ->AppendRow({Cell::Code(gender), Cell::Code(region),
                                 Cell::Value(score)})
                    .ok());
  }
  const std::string path = TempPath("fairtopk_cli_demo.csv");
  EXPECT_TRUE(WriteCsvFile(*table, path).ok());
  return path;
}

TEST(CliTest, MissingArgumentsPrintUsageAndFail) {
  const std::string out = TempPath("cli_usage.out");
  EXPECT_EQ(RunCli("", out), 2);
  EXPECT_EQ(RunCli("--csv only.csv", out), 2);
  EXPECT_EQ(RunCli("--csv x.csv --rank-by s --measure nope", out), 2);
}

TEST(CliTest, MalformedNumbersAreUsageErrors) {
  // Each once ran with a silently substituted value (--tau abc as the
  // 5% default, --kmin 5x as 5).
  const std::string csv = WriteDemoCsv();
  const std::string out = TempPath("cli_malformed.out");
  const std::string err = TempPath("cli_malformed.err");
  EXPECT_EQ(RunCli("--csv " + Quote(csv) + " --rank-by score --tau abc", out,
                   err),
            2);
  EXPECT_NE(ReadAll(err).find(
                "--tau expects an integer in [1, 1073741824], got 'abc'"),
            std::string::npos)
      << ReadAll(err);
  EXPECT_EQ(RunCli("--csv " + Quote(csv) + " --rank-by score --kmin 5x", out,
                   err),
            2);
  EXPECT_NE(ReadAll(err).find(
                "--kmin expects an integer in [1, 1073741824], got '5x'"),
            std::string::npos)
      << ReadAll(err);
}

/// Removes the wall/CPU timing members from a report's "stats" object:
/// the only bytes two runs of one query may legitimately differ in.
std::string DropTimings(std::string report) {
  for (const char* key : {",\"seconds\":", ",\"cpu_seconds\":"}) {
    const size_t at = report.find(key);
    if (at == std::string::npos) continue;
    report.erase(at, report.find_first_of(",}", at + 1) - at);
  }
  return report;
}

TEST(CliTest, ReportsEqualTheWireForEveryDetector) {
  // One session description, two front ends: the CLI's flags and the
  // JSONL `open` op must build the same session and the same report.
  const std::string csv = WriteDemoCsv();
  const std::string out = TempPath("cli_equivalence.out");
  SessionCatalog catalog;
  JsonlService service(&catalog, "eq");
  const std::string opened = service.HandleLine(
      R"({"op":"open","name":"eq","csv":")" + csv +
      R"(","rank_by":"score","k_min":10,"k_max":30,"tau":20,"lower":0.3,)"
      R"("alpha":0.9})");
  ASSERT_NE(opened.find("\"ok\":true"), std::string::npos) << opened;
  const auto& detectors = api::DetectorRegistry::Global().detectors();
  ASSERT_EQ(detectors.size(), 6u);
  for (const api::DetectorDescriptor& detector : detectors) {
    ASSERT_EQ(RunCli("--csv " + Quote(csv) + " --rank-by score --measure " +
                         detector.measure + " --algo " + detector.algo +
                         " --kmin 10 --kmax 30 --tau 20 --lower 0.3 "
                         "--alpha 0.9 --upper 15 --beta 1.2 --json",
                     out),
              0)
        << detector.name;
    std::string cli = ReadAll(out);
    ASSERT_FALSE(cli.empty()) << detector.name;
    cli.pop_back();  // trailing newline
    const std::string response = service.HandleLine(
        R"({"op":"detect","detector":")" + detector.name +
        R"(","upper":15,"beta":1.2})");
    ASSERT_TRUE(ParseJson(response).ok()) << response;
    ASSERT_NE(response.find("\"ok\":true"), std::string::npos) << response;
    // The report is the last member of data, which closes the envelope.
    const std::string marker = "\"report\":";
    const size_t at = response.find(marker) + marker.size();
    const std::string wire = response.substr(at, response.size() - at - 2);
    EXPECT_EQ(DropTimings(cli), DropTimings(wire)) << detector.name;
  }
}

TEST(CliTest, DetectionReportsBiasedGroups) {
  const std::string csv = WriteDemoCsv();
  const std::string out = TempPath("cli_detect.out");
  const int code = RunCli("--csv " + Quote(csv) +
                              " --rank-by score --measure prop --kmin 10 "
                              "--kmax 30 --tau 20",
                          out);
  EXPECT_EQ(code, 0);
  const std::string report = ReadAll(out);
  EXPECT_NE(report.find("{gender=F}"), std::string::npos) << report;
  EXPECT_NE(report.find("biased representation"), std::string::npos);
}

TEST(CliTest, JsonModeEmitsParsableSkeleton) {
  const std::string csv = WriteDemoCsv();
  const std::string out = TempPath("cli_json.out");
  const int code = RunCli("--csv " + Quote(csv) +
                              " --rank-by score --measure global --lower "
                              "0.3 --kmin 10 --kmax 20 --tau 20 --json",
                          out);
  EXPECT_EQ(code, 0);
  const std::string json = ReadAll(out);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"measure\":\"global\""), std::string::npos);
  EXPECT_NE(json.find("\"results\":["), std::string::npos);
}

TEST(CliTest, VerifyModeUsesExitCodeThree) {
  const std::string csv = WriteDemoCsv();
  const std::string out = TempPath("cli_verify.out");
  // Females are demoted by the score: biased -> exit 3.
  EXPECT_EQ(RunCli("--csv " + Quote(csv) +
                       " --rank-by score --measure global --lower 0.3 "
                       "--kmin 10 --kmax 30 --verify gender=F",
                   out),
            3);
  EXPECT_NE(ReadAll(out).find("BIASED"), std::string::npos);
  // Males dominate the top: fair -> exit 0.
  EXPECT_EQ(RunCli("--csv " + Quote(csv) +
                       " --rank-by score --measure global --lower 0.3 "
                       "--kmin 10 --kmax 30 --verify gender=M",
                   out),
            0);
  // Unknown attribute -> error.
  EXPECT_EQ(RunCli("--csv " + Quote(csv) +
                       " --rank-by score --verify nope=1 --kmin 5 "
                       "--kmax 10",
                   out),
            1);
  // A repeated attribute -> error naming it (once this audited only
  // the last label, {gender=M}, and exited 0 as FAIR).
  const std::string err = TempPath("cli_verify.err");
  EXPECT_EQ(RunCli("--csv " + Quote(csv) +
                       " --rank-by score --measure global --lower 0.3 "
                       "--kmin 10 --kmax 30 --verify " +
                       Quote("gender=F;gender=M"),
                   out, err),
            1);
  EXPECT_NE(ReadAll(err).find("attribute 'gender' assigned twice"),
            std::string::npos)
      << ReadAll(err);
}

/// The unsigned integer after `key` in `text` (-1 when absent).
long long NumberAfter(const std::string& text, const std::string& key) {
  const size_t at = text.find(key);
  if (at == std::string::npos) return -1;
  return std::atoll(text.c_str() + at + key.size());
}

TEST(CliTest, RerankRepairsAndRoundTrips) {
  const std::string csv = WriteDemoCsv();
  const std::string repaired = TempPath("cli_repaired.csv");
  const std::string out = TempPath("cli_rerank.out");
  std::remove(repaired.c_str());
  const int code = RunCli("--csv " + Quote(csv) +
                              " --rank-by score --measure global --lower "
                              "0.25 --kmin 10 --kmax 30 --tau 20 --rerank " +
                              Quote(repaired),
                          out);
  EXPECT_EQ(code, 0);
  // The repaired CSV exists and carries the rank column.
  const std::string contents = ReadAll(repaired);
  ASSERT_FALSE(contents.empty());
  EXPECT_NE(contents.find("repaired_rank"), std::string::npos);
  // Auditing the repaired file by repaired_rank finds gender=F fair.
  EXPECT_EQ(RunCli("--csv " + Quote(repaired) +
                       " --rank-by repaired_rank --ascending --drop score "
                       "--measure global --lower 0.25 --kmin 10 --kmax 30 "
                       "--verify gender=F",
                   out),
            0);
  // The CLI and the wire `rerank` op build the same floors from the
  // same detection, so they move the same tuples.
  SessionCatalog catalog;
  JsonlService service(&catalog, "rr");
  const std::string opened = service.HandleLine(
      R"({"op":"open","name":"rr","csv":")" + csv +
      R"(","rank_by":"score","k_min":10,"k_max":30,"tau":20,"lower":0.25,)"
      R"("alpha":0.9})");
  ASSERT_NE(opened.find("\"ok\":true"), std::string::npos) << opened;
  const std::string err = TempPath("cli_rerank.err");
  for (const std::string detector : {"GlobalBounds", "PropBounds"}) {
    const std::string measure = detector == "GlobalBounds" ? "global" : "prop";
    ASSERT_EQ(RunCli("--csv " + Quote(csv) + " --rank-by score --measure " +
                         measure +
                         " --kmin 10 --kmax 30 --tau 20 --lower 0.25 "
                         "--alpha 0.9 --rerank " +
                         Quote(repaired),
                     out, err),
              0)
        << detector;
    const std::string cli = ReadAll(err);
    const std::string response = service.HandleLine(
        R"({"op":"rerank","detector":")" + detector + R"("})");
    ASSERT_NE(response.find("\"ok\":true"), std::string::npos) << response;
    const long long moved = NumberAfter(cli, "moved=");
    EXPECT_GT(moved, 0) << detector << ": " << cli;
    EXPECT_EQ(moved, NumberAfter(response, "\"tuples_moved\":"))
        << detector << ": " << cli << " vs " << response;
    EXPECT_EQ(NumberAfter(cli, "kendall_tau="),
              NumberAfter(response, "\"kendall_tau_distance\":"))
        << detector << ": " << cli << " vs " << response;
  }
}

}  // namespace
}  // namespace fairtopk
