// The public audit API: typed requests and responses over the
// detector registry.
//
// An AuditRequest names a registered detector and carries exactly the
// parameterization it consumes (DetectionConfig + the matching
// BoundsSpec alternative); an AuditResponse pairs the detection result
// with the descriptor that produced it. RunAudit is the one-shot
// facade over a prepared DetectionInput: it runs the detector's one
// entry point and returns the whole DetectionResult. The examples go
// through it; the session layer adds caching and incremental
// maintenance on top (service/audit_session.h).
//
//   api::AuditRequest request;
//   request.detector = "GlobalBounds";
//   request.config = {/*k_min=*/10, /*k_max=*/49, /*tau=*/50};
//   request.bounds = GlobalBoundSpec{...};
//   FAIRTOPK_ASSIGN_OR_RETURN(DetectionResult result,
//                             api::RunAudit(input, request));
#ifndef FAIRTOPK_API_AUDIT_H_
#define FAIRTOPK_API_AUDIT_H_

#include <memory>
#include <string>
#include <vector>

#include "api/bounds_spec.h"
#include "api/detector_registry.h"
#include "common/metrics/trace.h"
#include "common/status.h"
#include "detect/detection_result.h"
#include "mitigate/rerank.h"

namespace fairtopk::api {

/// One detection query: a registered detector plus its full
/// parameterization. The bounds variant must hold the alternative the
/// detector's descriptor declares (checked on resolution).
struct AuditRequest {
  /// Stable registry name; see DetectorRegistry / the capabilities op.
  std::string detector = "PropBounds";
  DetectionConfig config;
  BoundsSpec bounds = PropBoundSpec{};

  /// Optional per-request trace hook (not owned; may be null — the
  /// zero-cost default). When set, RunAudit reports a "search"
  /// span covering the detector run, and the session layer adds
  /// lock-acquire spans plus the result's DetectionStats counters.
  /// Excluded from CacheKey: tracing never changes results, so traced
  /// and untraced queries share cache entries.
  metrics::TraceSink* trace = nullptr;

  /// Canonical cache key: detector name plus the canonical config and
  /// bounds encodings (api/canonical.h). Excludes num_threads —
  /// results are thread-count invariant by the engine's determinism
  /// rule, so a 4-thread query may be served from a sequential run's
  /// cache entry. Excludes `trace` (observability, not
  /// parameterization). Distinct parameterizations yield distinct keys
  /// (property-tested collision guard).
  std::string CacheKey() const;
};

/// The outcome of one served request.
struct AuditResponse {
  /// The registry entry that ran (never nullptr on success).
  const DetectorDescriptor* detector = nullptr;
  /// Per-k violation sets plus work counters. Shared so a session
  /// cache and its clients can hold the same immutable result.
  std::shared_ptr<const DetectionResult> result;
  /// True when the result was served from a cache (session layer) or
  /// deduplicated within a batch, false when the detector ran.
  bool cached = false;
  /// True when this response waited on an identical concurrent run
  /// instead of computing (session-layer in-flight coalescing; implies
  /// `cached`).
  bool coalesced = false;
};

/// Resolves the request's detector against `registry` and checks that
/// the bounds variant matches the descriptor's declared kind.
Result<const DetectorDescriptor*> ResolveRequest(
    const AuditRequest& request,
    const DetectorRegistry& registry = DetectorRegistry::Global());

/// Runs the request's detector over a prepared input and returns its
/// per-k violation sets for the whole [k_min, k_max] range.
Result<DetectionResult> RunAudit(const DetectionInput& input,
                                 const AuditRequest& request,
                                 const DetectorRegistry& registry =
                                     DetectorRegistry::Global());

/// Turns the groups of a lower-bound detection into the representation
/// floors that repair them — the one function behind `fairtopk_audit
/// --rerank` and the `rerank` op. Global bounds floor every group at
/// the lower staircase; proportional bounds at the constant
/// ceil(alpha * s_D(p) * k_max / |D|), a conservative approximation of
/// the band. Reads group sizes from `input`'s index: callers sharing
/// the input with writers hold its read lock.
std::vector<RepresentationConstraint> RepairConstraints(
    const DetectionResult& detected, const BoundsSpec& bounds,
    const DetectionInput& input);

}  // namespace fairtopk::api

#endif  // FAIRTOPK_API_AUDIT_H_
