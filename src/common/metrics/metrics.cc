#include "common/metrics/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/json.h"
#include "common/timer.h"

namespace fairtopk {
namespace metrics {

namespace {

/// Prometheus label values escape backslash, double quote, and
/// newline; everything else passes through verbatim.
std::string PromEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void AppendUint(std::string& out, uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%" PRIu64, value);
  out += buffer;
}

void AppendInt(std::string& out, int64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%" PRId64, value);
  out += buffer;
}

}  // namespace

double UptimeSeconds() {
  static const WallTimer* start = new WallTimer();
  return start->ElapsedSeconds();
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

FamilyBase::FamilyBase(std::string name, std::string help,
                       std::vector<std::string> label_names)
    : name_(std::move(name)),
      help_(std::move(help)),
      label_names_(std::move(label_names)) {}

std::string FamilyBase::LabelString(
    const std::vector<std::string>& label_values,
    const std::string& extra) const {
  if (label_values.empty() && extra.empty()) return std::string();
  std::string out = "{";
  for (size_t i = 0; i < label_values.size(); ++i) {
    if (i > 0) out += ',';
    out += label_names_[i];
    out += "=\"";
    out += PromEscape(label_values[i]);
    out += '"';
  }
  if (!extra.empty()) {
    if (!label_values.empty()) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

void FamilyBase::WriteJsonLabels(
    JsonWriter& w, const std::vector<std::string>& label_values) const {
  w.Key("labels").BeginObject();
  for (size_t i = 0; i < label_values.size(); ++i) {
    w.Key(label_names_[i]).String(label_values[i]);
  }
  w.EndObject();
}

template <typename M>
M& Family<M>::With(const std::vector<std::string>& label_values) {
  if (label_values.size() != label_names().size()) {
    std::fprintf(stderr,
                 "fairtopk metrics: family '%s' takes %zu label(s), got %zu\n",
                 name().c_str(), label_names().size(), label_values.size());
    std::abort();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = series_[label_values];
  if (!slot) slot = std::make_unique<M>();
  return *slot;
}

namespace {
template <typename M>
const char* TypeNameOf();
template <>
const char* TypeNameOf<Counter>() {
  return "counter";
}
template <>
const char* TypeNameOf<Gauge>() {
  return "gauge";
}
template <>
const char* TypeNameOf<Histogram>() {
  return "histogram";
}
}  // namespace

template <typename M>
const char* Family<M>::type_name() const {
  return TypeNameOf<M>();
}

template <>
void Family<Counter>::RenderPrometheus(std::string& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [labels, counter] : series_) {
    out += name();
    out += LabelString(labels);
    out += ' ';
    AppendUint(out, counter->value());
    out += '\n';
  }
}

template <>
void Family<Gauge>::RenderPrometheus(std::string& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [labels, gauge] : series_) {
    out += name();
    out += LabelString(labels);
    out += ' ';
    AppendInt(out, gauge->value());
    out += '\n';
  }
}

template <>
void Family<Histogram>::RenderPrometheus(std::string& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [labels, histogram] : series_) {
    // Cumulative buckets; the +Inf line repeats the bucket total so the
    // series stays internally consistent even when a concurrent
    // Observe lands between the bucket and count_ reads.
    uint64_t cumulative = 0;
    for (int i = 0; i < Histogram::kNumBuckets - 1; ++i) {
      cumulative += histogram->bucket_count(i);
      out += name();
      out += "_bucket";
      std::string le = "le=\"";
      AppendUint(le, Histogram::BucketBound(i));
      le += '"';
      out += LabelString(labels, le);
      out += ' ';
      AppendUint(out, cumulative);
      out += '\n';
    }
    cumulative += histogram->bucket_count(Histogram::kNumBuckets - 1);
    out += name();
    out += "_bucket";
    out += LabelString(labels, "le=\"+Inf\"");
    out += ' ';
    AppendUint(out, cumulative);
    out += '\n';
    out += name();
    out += "_sum";
    out += LabelString(labels);
    out += ' ';
    AppendUint(out, histogram->sum());
    out += '\n';
    out += name();
    out += "_count";
    out += LabelString(labels);
    out += ' ';
    AppendUint(out, cumulative);
    out += '\n';
  }
}

template <>
void Family<Counter>::RenderJson(JsonWriter& w) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [labels, counter] : series_) {
    w.BeginObject();
    WriteJsonLabels(w, labels);
    w.Key("value").Uint(counter->value());
    w.EndObject();
  }
}

template <>
void Family<Gauge>::RenderJson(JsonWriter& w) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [labels, gauge] : series_) {
    w.BeginObject();
    WriteJsonLabels(w, labels);
    w.Key("value").Int(gauge->value());
    w.EndObject();
  }
}

template <>
void Family<Histogram>::RenderJson(JsonWriter& w) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [labels, histogram] : series_) {
    w.BeginObject();
    WriteJsonLabels(w, labels);
    // Cumulative buckets, skipping bounds where nothing new landed;
    // the overflow (+Inf) total is `count`.
    uint64_t cumulative = 0;
    w.Key("buckets").BeginArray();
    for (int i = 0; i < Histogram::kNumBuckets - 1; ++i) {
      const uint64_t in_bucket = histogram->bucket_count(i);
      if (in_bucket == 0) continue;
      cumulative += in_bucket;
      w.BeginObject();
      w.Key("le").Uint(Histogram::BucketBound(i));
      w.Key("cumulative").Uint(cumulative);
      w.EndObject();
    }
    cumulative += histogram->bucket_count(Histogram::kNumBuckets - 1);
    w.EndArray();
    w.Key("count").Uint(cumulative);
    w.Key("sum").Uint(histogram->sum());
    w.EndObject();
  }
}

template class Family<Counter>;
template class Family<Gauge>;
template class Family<Histogram>;

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

template <typename M>
Family<M>& MetricsRegistry::GetOrCreate(const std::string& name,
                                        const std::string& help,
                                        std::vector<std::string> label_names) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = families_[name];
  if (!slot) {
    slot = std::make_unique<Family<M>>(name, help, std::move(label_names));
  }
  auto* family = dynamic_cast<Family<M>*>(slot.get());
  if (family == nullptr) {
    std::fprintf(stderr,
                 "fairtopk metrics: family '%s' re-registered as %s "
                 "(was %s)\n",
                 name.c_str(), TypeNameOf<M>(), slot->type_name());
    std::abort();
  }
  return *family;
}

Family<Counter>& MetricsRegistry::CounterFamily(
    const std::string& name, const std::string& help,
    std::vector<std::string> label_names) {
  return GetOrCreate<Counter>(name, help, std::move(label_names));
}

Family<Gauge>& MetricsRegistry::GaugeFamily(
    const std::string& name, const std::string& help,
    std::vector<std::string> label_names) {
  return GetOrCreate<Gauge>(name, help, std::move(label_names));
}

Family<Histogram>& MetricsRegistry::HistogramFamily(
    const std::string& name, const std::string& help,
    std::vector<std::string> label_names) {
  return GetOrCreate<Histogram>(name, help, std::move(label_names));
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::string out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, family] : families_) {
    out += "# HELP ";
    out += name;
    out += ' ';
    out += family->help();
    out += '\n';
    out += "# TYPE ";
    out += name;
    out += ' ';
    out += family->type_name();
    out += '\n';
    family->RenderPrometheus(out);
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("uptime_seconds").Double(UptimeSeconds());
  w.Key("families").BeginArray();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, family] : families_) {
      w.BeginObject();
      w.Key("name").String(name);
      w.Key("type").String(family->type_name());
      w.Key("help").String(family->help());
      w.Key("series").BeginArray();
      family->RenderJson(w);
      w.EndArray();
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace metrics
}  // namespace fairtopk
