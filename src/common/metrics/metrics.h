// Lock-cheap process metrics for the serving stack: atomic counters,
// gauges, and fixed-bucket log-scale latency histograms, grouped into
// labeled families inside a MetricsRegistry. Hot paths touch only
// relaxed atomics; the registry mutex is crossed at family/series
// registration (rare — call sites cache the returned reference in a
// function-local static) and at render time. There is no off switch:
// every instrumentation site always counts.
//
// Two render surfaces:
//   RenderPrometheus() — text exposition format (0.0.4): HELP/TYPE
//     lines, cumulative `le` buckets, `_sum`/`_count` per histogram
//     series. Served by service/net/metrics_http.h.
//   RenderJson()       — one JSON object for the `metrics` JSONL op.
#ifndef FAIRTOPK_COMMON_METRICS_METRICS_H_
#define FAIRTOPK_COMMON_METRICS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fairtopk {

class JsonWriter;

namespace metrics {

/// Seconds since the process metrics clock started. The clock starts
/// on the first call, so tools call this once early in main() to make
/// uptime cover the whole process life.
double UptimeSeconds();

/// Monotonically increasing event count.
class Counter {
 public:
  void Inc(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  /// Test/bench isolation only — Prometheus semantics assume counters
  /// never regress within a scrape series.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous level (active connections, queue depth).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Inc(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Dec(int64_t delta = 1) {
    value_.fetch_sub(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket log2 histogram over non-negative integer observations
/// (the serving layers feed it microseconds). Bucket i counts values
/// with bit_width == i, i.e. upper bound 2^i - 1 inclusive: le bounds
/// run 0, 1, 3, 7, ..., 2^26-1 (~67 s in micros), with one final
/// overflow (+Inf) bucket. count and sum are exact — each Observe is
/// three relaxed fetch_adds — so concurrent totals can be asserted
/// precisely in tests.
class Histogram {
 public:
  /// 27 finite buckets + overflow.
  static constexpr int kNumBuckets = 28;

  /// Inclusive upper bound of finite bucket i (i < kNumBuckets - 1).
  static constexpr uint64_t BucketBound(int i) {
    return (uint64_t{1} << i) - 1;
  }

  /// Index of the bucket that counts `value`.
  static constexpr int BucketIndex(uint64_t value) {
    const int width = std::bit_width(value);
    return width < kNumBuckets - 1 ? width : kNumBuckets - 1;
  }

  void Observe(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket_count(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// A named metric family: fixed label names, one Counter/Gauge/
/// Histogram per distinct label-value tuple. Series registration is
/// mutex-guarded; the returned reference is stable for the process
/// lifetime, so hot paths resolve it once and keep it.
class FamilyBase {
 public:
  FamilyBase(std::string name, std::string help,
             std::vector<std::string> label_names);
  virtual ~FamilyBase() = default;
  FamilyBase(const FamilyBase&) = delete;
  FamilyBase& operator=(const FamilyBase&) = delete;

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  const std::vector<std::string>& label_names() const { return label_names_; }

  virtual const char* type_name() const = 0;
  virtual void RenderPrometheus(std::string& out) const = 0;
  virtual void RenderJson(JsonWriter& w) const = 0;

 protected:
  /// `{k1="v1",k2="v2"}`, or empty for a label-less family. `extra` is
  /// appended as a final label (used for histogram `le`).
  std::string LabelString(const std::vector<std::string>& label_values,
                          const std::string& extra = std::string()) const;
  void WriteJsonLabels(JsonWriter& w,
                       const std::vector<std::string>& label_values) const;

  mutable std::mutex mutex_;

 private:
  std::string name_;
  std::string help_;
  std::vector<std::string> label_names_;
};

template <typename M>
class Family final : public FamilyBase {
 public:
  using FamilyBase::FamilyBase;

  /// The series for `label_values` (size must equal label_names()),
  /// created on first use. Stable reference; never invalidated.
  M& With(const std::vector<std::string>& label_values);

  const char* type_name() const override;
  void RenderPrometheus(std::string& out) const override;
  void RenderJson(JsonWriter& w) const override;

 private:
  std::map<std::vector<std::string>, std::unique_ptr<M>> series_;
};

/// Name-ordered collection of families. Instantiable for tests; the
/// serving stack shares Global(). Family factories are idempotent by
/// name — asking again with the same name (and metric type) returns
/// the existing family.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-global registry every layer reports into.
  static MetricsRegistry& Global();

  Family<Counter>& CounterFamily(const std::string& name,
                                 const std::string& help,
                                 std::vector<std::string> label_names = {});
  Family<Gauge>& GaugeFamily(const std::string& name, const std::string& help,
                             std::vector<std::string> label_names = {});
  Family<Histogram>& HistogramFamily(
      const std::string& name, const std::string& help,
      std::vector<std::string> label_names = {});

  /// Prometheus text exposition (version 0.0.4) of every family, in
  /// name order.
  std::string RenderPrometheus() const;

  /// One JSON object:
  ///   {"uptime_seconds": S, "families": [{"name": ..., "type": ...,
  ///    "help": ..., "series": [...]}, ...]}
  /// Histogram series carry exact count/sum plus cumulative buckets.
  std::string RenderJson() const;

 private:
  template <typename M>
  Family<M>& GetOrCreate(const std::string& name, const std::string& help,
                         std::vector<std::string> label_names);

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<FamilyBase>> families_;
};

}  // namespace metrics
}  // namespace fairtopk

#endif  // FAIRTOPK_COMMON_METRICS_METRICS_H_
