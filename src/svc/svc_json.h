// JSON framing of the job service: the job file tools/jobsvc consumes and
// the per-job result document it emits. The job file is read through
// util/json, the tree's one JSON reader.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/plan.h"
#include "svc/job.h"
#include "svc/service.h"

namespace emcgm::svc {

/// A parsed job file: service shape + jobs in submission order + an
/// optional service-level chaos campaign targeting one tenant.
struct ServiceSpec {
  ServiceConfig service;
  std::vector<JobSpec> jobs;
  /// Service-level chaos (optional): a plan generated from (chaos_seed,
  /// chaos_shape) is armed on the tenant chaos_shape.target_tenant names.
  /// chaos_seed == 0 means no campaign.
  std::uint64_t chaos_seed = 0;
  chaos::PlanShape chaos_shape;
};

/// Parse a job file:
///
///   {
///     "pool": {"hosts": 4, "disks_per_host": 8, "block_bytes": 4096,
///              "placement": "pack"},
///     "quantum_bytes": 1048576,
///     "workers": 4,
///     "trace": false,
///     "jobs": [
///       {"name": "sortA", "workload": "sort", "n": 4096, "seed": 7,
///        "v": 8, "hosts": 2, "disks": 4, "priority": 1,
///        "arrival_tick": 0, "use_threads": false, "io_threads": 0,
///        "prefetch_depth": 1, "chaos": {...ChaosPlan object...}}, ...
///     ],
///     "chaos": {"seed": 5, "target_tenant": 1, "max_events": 4, ...}
///   }
///
/// Every field except job "name" and "workload" has the JobSpec default.
/// "workers" selects the execution-phase thread count (>= 1; absent =
/// hardware concurrency); pool "placement" is "pack" or "spread" — any other
/// string is rejected typed. Integers must be plain decimals inside their
/// field's range; a repeated key or bytes after the document are rejected.
/// Throws IoError(kConfig) on malformed input.
ServiceSpec parse_service_json(const std::string& text);

/// Resolve the service-level chaos campaign: generate the plan and attach
/// its JSON to the targeted job's chaos_json. Throws IoError(kConfig) when
/// target_tenant is out of range or the targeted job already carries a
/// per-job plan. No-op when chaos_seed == 0.
void arm_service_chaos(ServiceSpec& spec);

/// Per-job results as JSON: {"ticks": ..., "jobs": [{...}, ...]}.
std::string results_json(const std::vector<JobResult>& results,
                         std::uint64_t ticks);

}  // namespace emcgm::svc
