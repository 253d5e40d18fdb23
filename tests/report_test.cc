#include "report/json_report.h"

#include <gtest/gtest.h>

#include "datagen/running_example.h"
#include "detect/itertd.h"
#include "test_util.h"

namespace fairtopk {
namespace {

using testing::PatternOf;

struct Fixture {
  DetectionInput input;
  DetectionResult result;
};

Fixture MakeFixture() {
  Result<Table> table = RunningExampleTable();
  EXPECT_TRUE(table.ok());
  auto ranker = RunningExampleRanker();
  auto input = DetectionInput::Prepare(*table, *ranker);
  EXPECT_TRUE(input.ok());
  GlobalBoundSpec bounds;
  bounds.lower = StepFunction::Constant(2.0);
  DetectionConfig config;
  config.k_min = 4;
  config.k_max = 5;
  config.size_threshold = 4;
  auto result = DetectGlobalIterTD(*input, bounds, config);
  EXPECT_TRUE(result.ok());
  return Fixture{std::move(input).value(), std::move(result).value()};
}

TEST(PatternToJsonTest, RendersAssignments) {
  Fixture f = MakeFixture();
  EXPECT_EQ(PatternToJson(PatternOf(4, {{1, 1}, {3, 1}}), f.input.space()),
            "{\"School\":\"GP\",\"Failures\":\"1\"}");
  EXPECT_EQ(PatternToJson(Pattern::Empty(4), f.input.space()), "{}");
}

TEST(DetectionResultToJsonTest, ContainsAllSections) {
  Fixture f = MakeFixture();
  ReportContext context{"running-example", "global", "IterTD"};
  std::string json = DetectionResultToJson(f.result, f.input, context);
  EXPECT_NE(json.find("\"dataset\":\"running-example\""),
            std::string::npos);
  EXPECT_NE(json.find("\"measure\":\"global\""), std::string::npos);
  EXPECT_NE(json.find("\"k_min\":4"), std::string::npos);
  EXPECT_NE(json.find("\"k_max\":5"), std::string::npos);
  EXPECT_NE(json.find("\"nodes_visited\""), std::string::npos);
  EXPECT_NE(json.find("\"results\":["), std::string::npos);
  EXPECT_NE(json.find("\"k\":4"), std::string::npos);
  EXPECT_NE(json.find("\"k\":5"), std::string::npos);
  // One of the known detected groups appears with counts.
  EXPECT_NE(json.find("\"Address\":\"U\""), std::string::npos);
  EXPECT_NE(json.find("\"top_k_count\""), std::string::npos);
}

TEST(DetectionResultToJsonTest, GroupCountsMatchResult) {
  Fixture f = MakeFixture();
  ReportContext context{"d", "global", "a"};
  std::string json = DetectionResultToJson(f.result, f.input, context);
  // Count pattern objects: every group contributes one "pattern" key.
  size_t occurrences = 0;
  size_t pos = 0;
  while ((pos = json.find("\"pattern\"", pos)) != std::string::npos) {
    ++occurrences;
    pos += 9;
  }
  EXPECT_EQ(occurrences,
            f.result.AtK(4).size() + f.result.AtK(5).size());
}

// Three attributes whose names and labels need escaping, 12 rows in a
// fixed non-identity ranking, and a hand-built result whose groups
// repeat across k, span 0-3 predicates, and leave one k empty. The
// stats are fixed so the whole report is deterministic.
struct GoldenFixture {
  DetectionInput input;
  DetectionResult result;
};

GoldenFixture MakeGoldenFixture() {
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("q\"uote", {"a\"b", "plain"}).ok());
  EXPECT_TRUE(schema.AddCategorical("back\\slash", {"c\\d", "x"}).ok());
  EXPECT_TRUE(
      schema.AddCategorical(std::string("ctl\x01", 4), {"e\x1f" "f", "t\tz"})
          .ok());
  Result<Table> table = Table::Create(std::move(schema));
  EXPECT_TRUE(table.ok());
  for (int r = 0; r < 12; ++r) {
    const std::vector<Cell> row = {Cell::Code(static_cast<int16_t>(r % 2)),
                                   Cell::Code(static_cast<int16_t>(r % 3 == 0)),
                                   Cell::Code(static_cast<int16_t>(r / 6))};
    EXPECT_TRUE(table->AppendRow(row).ok());
  }
  std::vector<uint32_t> ranking = {7, 2, 11, 0, 5, 9, 3, 10, 1, 6, 8, 4};
  auto input = DetectionInput::PrepareWithRanking(*table, std::move(ranking));
  EXPECT_TRUE(input.ok());

  DetectionResult result(2, 5);
  const Pattern a0 = PatternOf(3, {{0, 0}});
  const Pattern a01 = PatternOf(3, {{0, 0}, {1, 0}});
  const Pattern a12 = PatternOf(3, {{1, 1}, {2, 0}});
  const Pattern all = PatternOf(3, {{0, 1}, {1, 0}, {2, 1}});
  result.MutableAtK(2) = {a0, a01};
  result.MutableAtK(3) = {a0, a12, all};
  result.MutableAtK(4) = {Pattern::Empty(3), all, a01};
  result.stats().nodes_visited = 12345;
  result.stats().cursor_reuse_hits = 67;
  result.stats().seconds = 0.125;
  result.stats().cpu_seconds = 3.0e-7;
  return GoldenFixture{std::move(input).value(), std::move(result)};
}

// The exact bytes the report serializer produced before the counting
// and writer fast paths; any change to them is a wire-format change.
TEST(DetectionResultToJsonTest, MatchesGoldenBytes) {
  GoldenFixture f = MakeGoldenFixture();
  ReportContext context{"golden \"set\"\\v1", "global", "IterTD"};
  const std::string expected =
      R"golden({"dataset":"golden \"set\"\\v1","measure":"global",)golden"
      R"golden("algorithm":"IterTD","k_min":2,"k_max":5,)golden"
      R"golden("stats":{"nodes_visited":12345,"cursor_reuse_hits":67,)golden"
      R"golden("seconds":0.125,"cpu_seconds":3e-07},)golden"
      R"golden("results":[{"k":2,"groups":[{"pattern":{"q\"uote":"a\"b"},)golden"
      R"golden("size":6,"top_k_count":1},)golden"
      R"golden({"pattern":{"q\"uote":"a\"b","back\\slash":"c\\d"},"size":4,)golden"
      R"golden("top_k_count":1}]},)golden"
      R"golden({"k":3,"groups":[{"pattern":{"q\"uote":"a\"b"},"size":6,)golden"
      R"golden("top_k_count":1},)golden"
      R"golden({"pattern":{"back\\slash":"x","ctl\u0001":"e\u001ff"},)golden"
      R"golden("size":2,"top_k_count":0},)golden"
      R"golden({"pattern":{"q\"uote":"plain","back\\slash":"c\\d",)golden"
      R"golden("ctl\u0001":"t\tz"},"size":2,"top_k_count":2}]},)golden"
      R"golden({"k":4,"groups":[{"pattern":{},"size":12,"top_k_count":4},)golden"
      R"golden({"pattern":{"q\"uote":"plain","back\\slash":"c\\d",)golden"
      R"golden("ctl\u0001":"t\tz"},"size":2,"top_k_count":2},)golden"
      R"golden({"pattern":{"q\"uote":"a\"b","back\\slash":"c\\d"},"size":4,)golden"
      R"golden("top_k_count":1}]},)golden"
      R"golden({"k":5,"groups":[]}]})golden";
  EXPECT_EQ(DetectionResultToJson(f.result, f.input, context), expected);
}

TEST(ExplanationToJsonTest, SerializesEffectsAndDistribution) {
  Fixture f = MakeFixture();
  GroupExplanation explanation;
  explanation.pattern = PatternOf(4, {{1, 1}});
  explanation.effects = {{"Grade", -3.25}, {"School", 0.5}};
  explanation.top_attribute_distribution.attribute = "Grade";
  explanation.top_attribute_distribution.bins = {
      {"[0, 10)", 0.0, 0.75}, {"[10, 20)", 1.0, 0.25}};
  std::string json = ExplanationToJson(explanation, f.input.space());
  EXPECT_NE(json.find("\"School\":\"GP\""), std::string::npos);
  EXPECT_NE(json.find("\"attribute\":\"Grade\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_shapley\":-3.25"), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"[0, 10)\""), std::string::npos);
  EXPECT_NE(json.find("\"top_k\":0"), std::string::npos);
  EXPECT_NE(json.find("\"group\":0.75"), std::string::npos);
}

}  // namespace
}  // namespace fairtopk
