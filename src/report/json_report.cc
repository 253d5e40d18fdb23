#include "report/json_report.h"

#include <functional>
#include <unordered_map>

#include "common/json.h"

namespace fairtopk {

namespace {

void WritePattern(JsonWriter& w, const Pattern& pattern,
                  const PatternSpace& space) {
  w.BeginObject();
  for (size_t a = 0; a < pattern.num_attributes(); ++a) {
    if (!pattern.IsSpecified(a)) continue;
    w.Key(space.name(a)).String(space.label(a, pattern.value(a)));
  }
  w.EndObject();
}

}  // namespace

std::string PatternToJson(const Pattern& pattern,
                          const PatternSpace& space) {
  JsonWriter w;
  WritePattern(w, pattern, space);
  return w.str();
}

std::string DetectionResultToJson(const DetectionResult& result,
                                  const DetectionInput& input,
                                  const ReportContext& context) {
  // s_D(p) does not depend on k: count each distinct group once. Keys
  // refer to the result's own patterns, which outlive the map.
  std::unordered_map<std::reference_wrapper<const Pattern>, size_t,
                     PatternHash, std::equal_to<Pattern>>
      sizes;
  JsonWriter w;
  w.BeginObject();
  w.Key("dataset").String(context.dataset);
  w.Key("measure").String(context.measure);
  w.Key("algorithm").String(context.algorithm);
  w.Key("k_min").Int(result.k_min());
  w.Key("k_max").Int(result.k_max());
  w.Key("stats").BeginObject();
  w.Key("nodes_visited").Uint(result.stats().nodes_visited);
  w.Key("cursor_reuse_hits").Uint(result.stats().cursor_reuse_hits);
  w.Key("seconds").Double(result.stats().seconds);
  w.Key("cpu_seconds").Double(result.stats().cpu_seconds);
  w.EndObject();
  w.Key("results").BeginArray();
  for (int k = result.k_min(); k <= result.k_max(); ++k) {
    w.BeginObject();
    w.Key("k").Int(k);
    w.Key("groups").BeginArray();
    for (const Pattern& p : result.AtK(k)) {
      w.BeginObject();
      w.Key("pattern");
      WritePattern(w, p, input.space());
      auto [it, inserted] = sizes.try_emplace(p, 0);
      if (inserted) it->second = input.index().PatternCount(p);
      w.Key("size").Uint(it->second);
      w.Key("top_k_count")
          .Uint(input.index().TopKCount(p, static_cast<size_t>(k)));
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string ExplanationToJson(const GroupExplanation& explanation,
                              const PatternSpace& space) {
  JsonWriter w;
  w.BeginObject();
  w.Key("pattern");
  WritePattern(w, explanation.pattern, space);
  w.Key("effects").BeginArray();
  for (const AttributeEffect& effect : explanation.effects) {
    w.BeginObject();
    w.Key("attribute").String(effect.attribute);
    w.Key("mean_shapley").Double(effect.mean_shapley);
    w.EndObject();
  }
  w.EndArray();
  w.Key("top_attribute_distribution").BeginObject();
  w.Key("attribute").String(explanation.top_attribute_distribution.attribute);
  w.Key("bins").BeginArray();
  for (const DistributionBin& bin :
       explanation.top_attribute_distribution.bins) {
    w.BeginObject();
    w.Key("label").String(bin.label);
    w.Key("top_k").Double(bin.top_k_fraction);
    w.Key("group").Double(bin.group_fraction);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  return w.str();
}

}  // namespace fairtopk
