// Exporters for the observability subsystem.
//
//  * write_chrome_trace: Chrome trace-event JSON (the "JSON Array Format"
//    with a traceEvents envelope) — loadable in Perfetto (ui.perfetto.dev)
//    or chrome://tracing. Hosts render as processes, store groups as
//    threads; spans become complete ("X") events; per-superstep metrics
//    become counter ("C") tracks so I/O ops and wire bytes can be read off
//    the same timeline as the phase spans.
//  * write_metrics_json: machine-readable per-superstep counters with the
//    predicted-vs-measured PDM cost columns, consumed by bench_util's
//    --trace flag and by CI's trace validator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace emcgm::obs {

class Tracer;
class MetricsRegistry;

/// Schema tag embedded in the metrics JSON (bump on breaking changes).
inline constexpr const char* kMetricsSchema = "emcgm-metrics/1";

/// Write the full trace as Chrome trace-event JSON: the one-tenant case of
/// write_chrome_trace_multi. `metrics` may be null; when present its rows
/// are emitted as counter tracks on the engine process. Every exporter here
/// writes through write_file (util/file.h): a failed open, write, flush or
/// close throws IoError naming the path.
void write_chrome_trace(const std::string& path, const Tracer& tracer,
                        const MetricsRegistry* metrics);

/// One tenant's trace sources for the combined multi-tenant exporter.
/// `tracer` must be non-null; `metrics` may be null.
struct TenantTrace {
  const Tracer* tracer = nullptr;
  const MetricsRegistry* metrics = nullptr;
};

/// Write several tenants' traces into ONE Chrome trace document. Tenants
/// are flushed in the given (canonical) order onto disjoint pid ranges —
/// tenant i's processes start at the sum of (p+1) over tenants before it —
/// so per-lane span nesting stays well-formed no matter which worker
/// threads recorded the spans (the job service's parallel execution phase).
/// Process names keep their tenant prefix; tools/validate_trace.py checks
/// the combined document like any single-tenant trace.
void write_chrome_trace_multi(const std::string& path,
                              const std::vector<TenantTrace>& tenants);

/// Write per-superstep metrics JSON. `num_disks`/`block_bytes` describe the
/// machine so consumers can reconstruct PDM units without the config.
void write_metrics_json(const std::string& path, const MetricsRegistry& m,
                        std::uint32_t num_disks, std::size_t block_bytes);

/// The metrics sibling of a Chrome trace path: "<stem>.metrics.json" (a
/// trailing ".json" on `trace_path` is treated as the stem's extension).
std::string metrics_path_for(const std::string& trace_path);

}  // namespace emcgm::obs
