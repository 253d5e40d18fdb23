#include "detect/itertd.h"

#include <utility>

#include "detect/topdown.h"

namespace fairtopk {

Result<DetectionResult> DetectGlobalIterTD(const DetectionInput& input,
                                           const GlobalBoundSpec& bounds,
                                           const DetectionConfig& config) {
  return engine::DetectPerK(
      input, config, [&](int k, DetectionStats& stats) {
        const double lower = bounds.lower.At(k);
        TopDownOutcome outcome = TopDownSearch(
            input.index(), config.size_threshold, k,
            [lower](size_t) { return lower; }, &stats, config.num_threads);
        return outcome.result.Sorted();
      });
}

Result<DetectionResult> DetectPropIterTD(const DetectionInput& input,
                                         const PropBoundSpec& bounds,
                                         const DetectionConfig& config) {
  if (bounds.alpha <= 0.0) {
    return Status::InvalidArgument("alpha must be positive");
  }
  const size_t n = input.num_rows();
  return engine::DetectPerK(
      input, config, [&](int k, DetectionStats& stats) {
        // Evaluate the bound through PropBoundSpec::LowerAt so every
        // algorithm (and test oracle) shares one floating-point
        // evaluation order; boundary cases like bound == count would
        // otherwise be classified inconsistently.
        TopDownOutcome outcome = TopDownSearch(
            input.index(), config.size_threshold, k,
            [&bounds, k, n](size_t size_d) {
              return bounds.LowerAt(static_cast<int>(size_d), k, n);
            },
            &stats, config.num_threads);
        return outcome.result.Sorted();
      });
}

}  // namespace fairtopk
