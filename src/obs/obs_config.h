// Observability toggle carried by cgm::MachineConfig. Kept dependency-free
// so config.h stays light; the subsystem itself lives in obs/trace.h,
// obs/metrics.h and obs/export.h.
#pragma once

#include <string>

namespace emcgm::obs {

struct ObsConfig {
  /// Master switch for the observability subsystem: when true the engine
  /// owns a Tracer (phase-scoped spans, per-host shards) and a
  /// MetricsRegistry (per-physical-superstep counter snapshots with
  /// predicted-vs-measured PDM cost). When false — the default — no tracer
  /// or registry exists, every span site is a single null-pointer test, and
  /// outputs plus every stat counter are bit-identical to a build without
  /// the subsystem.
  bool trace = false;

  /// Tenant label for multi-job runs (src/svc): when non-empty, the Chrome
  /// exporter prefixes every process name with it ("jobA: host 0"), so
  /// traces of co-resident jobs can be told apart — and diffed against the
  /// job's solo run — after export. Sanitized to [A-Za-z0-9_.-] on the way
  /// into the Tracer, the process-name pattern tools/validate_trace.py
  /// checks. Empty (the default) emits exactly the pre-tenant names.
  std::string tenant;
};

}  // namespace emcgm::obs
