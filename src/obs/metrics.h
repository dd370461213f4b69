// Unified metrics registry: one labeled snapshot per physical superstep,
// bringing the three disconnected stat structs (pdm::IoStats,
// cgm::StepComm, net::NetStats) together with the paper's predicted PDM
// cost for the same step. This is what makes the G·I/O accounting of
// Theorems 2–3 checkable *per phase*: each row carries the counted parallel
// I/Os, the cost model's predicted I/O seconds for them (G × ops), and the
// measured wall clock of the superstep.
//
// Rows are recorded only at superstep barriers, single-threaded, from
// deltas of the engine's existing counters — the registry adds no hot-path
// work and does not exist at all unless cgm::MachineConfig::obs.trace is
// set.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cgm/comm_stats.h"
#include "net/net_stats.h"
#include "pdm/io_stats.h"

namespace emcgm::obs {

struct SuperstepMetrics {
  std::uint64_t step = 0;         ///< physical superstep clock
  std::uint64_t round = 0;        ///< application round
  const char* phase = "compute";  ///< "compute", "regroup", "final", "output"
  bool has_comm = false;          ///< whether `comm` describes a real h-relation
  pdm::IoStats io;                ///< disk ops this step, summed over hosts
  cgm::StepComm comm;             ///< the realized h-relation (has_comm only)
  net::NetStats net;              ///< wire activity this step
  double wall_s = 0.0;            ///< measured wall clock of the step
  /// Predicted I/O time for the counted ops under the disk service-time
  /// model (the paper's G × #ops) — compare against wall_s to validate the
  /// model per step instead of only end-to-end.
  double model_io_s = 0.0;
  /// Tracer clock at record time (ns since tracer epoch; 0 without a
  /// tracer). Lets exporters align metrics rows with the span timeline.
  std::uint64_t end_ns = 0;
};

class MetricsRegistry {
 public:
  void record(SuperstepMetrics m) { steps_.push_back(std::move(m)); }
  const std::vector<SuperstepMetrics>& steps() const { return steps_; }

  /// Flatten one row's counters into ("io.read_ops", value) pairs — the
  /// unified label space shared by the JSON exporter and bench_util.
  static std::vector<std::pair<const char*, std::uint64_t>> labeled(
      const SuperstepMetrics& m);

  /// Sum of the per-step I/O deltas (equals the run's RunResult::io when
  /// every barrier recorded).
  pdm::IoStats total_io() const {
    pdm::IoStats t;
    for (const auto& s : steps_) t += s.io;
    return t;
  }

 private:
  std::vector<SuperstepMetrics> steps_;
};

}  // namespace emcgm::obs
