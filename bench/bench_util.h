// Shared helpers for the figure-reproduction benchmarks: machine builders,
// a fixed-width table printer that mirrors the paper's presentation, a
// --json <path> flag so CI and plotting scripts consume the same numbers
// the terminal shows, and a --trace <path> flag that arms the observability
// subsystem on a representative run and exports a Chrome trace (Perfetto)
// plus its per-superstep metrics sibling.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cgm/engine.h"
#include "cgm/machine.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pdm/cost_model.h"
#include "pdm/disk_array.h"
#include "util/file.h"
#include "util/json.h"
#include "util/timer.h"

namespace emcgm::bench {

/// Schema tag for the --json report envelope (bump on breaking changes).
inline constexpr const char* kBenchSchema = "emcgm-bench/2";

inline cgm::MachineConfig standard_config(std::uint32_t v, std::uint32_t p,
                                          std::uint32_t D, std::size_t B) {
  cgm::MachineConfig cfg;
  cfg.v = v;
  cfg.p = p;
  cfg.disk.num_disks = D;
  cfg.disk.block_bytes = B;
  return cfg;
}

/// Validate a machine config at the benchmark boundary. Every bench routes
/// each config it is about to run through here, so an invalid knob combo
/// (bad v/p ratio, quota list of the wrong length, unknown checkpoint
/// version, ...) dies up front with the typed kConfig diagnostic instead of
/// an uncaught exception out of an engine constructor mid-sweep.
inline cgm::MachineConfig checked(cgm::MachineConfig cfg) {
  try {
    cfg.validate();
  } catch (const Error& e) {
    std::fprintf(stderr, "invalid machine config: %s\n", e.what());
    std::exit(2);
  }
  return cfg;
}

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
    }
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size(); ++c) {
        width[c] = std::max(width[c], r[c].size());
      }
    }
    auto line = [&] {
      std::printf("+");
      for (auto w : width) {
        for (std::size_t i = 0; i < w + 2; ++i) std::printf("-");
        std::printf("+");
      }
      std::printf("\n");
    };
    auto print_row = [&](const std::vector<std::string>& r) {
      std::printf("|");
      for (std::size_t c = 0; c < width.size(); ++c) {
        const std::string& cell = c < r.size() ? r[c] : std::string();
        std::printf(" %-*s |", static_cast<int>(width[c]), cell.c_str());
      }
      std::printf("\n");
    };
    line();
    print_row(headers_);
    line();
    for (const auto& r : rows_) print_row(r);
    line();
  }

  /// Write this table as {"name": ..., "rows": [{header: cell, ...}, ...]}.
  /// Cells are strings — they were formatted for humans, and a consumer that
  /// wants numbers can parse them without this header guessing types.
  void write_json(json::Writer& w, const std::string& name) const {
    w.begin_object().field("name", name).key("rows").begin_array();
    for (const auto& r : rows_) {
      w.begin_object();
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        w.field(headers_[c], c < r.size() ? r[c] : std::string());
      }
      w.end_object();
    }
    w.end_array().end_object();
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Parse `--json <path>` (or `--json=<path>`) from argv. Returns the empty
/// string when the flag is absent; exits with a usage message when the flag
/// is malformed.
inline std::string json_arg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
        std::exit(2);
      }
      return argv[i + 1];
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) return argv[i] + 7;
  }
  return "";
}

/// Write every table of a benchmark run to `path` as a schema-tagged
/// envelope {"schema": "emcgm-bench/2", "tables": [...]}, one object per
/// table. (Version 1 was a bare array; the envelope lets consumers detect
/// column changes instead of silently misparsing.) No-op when path is empty.
inline void write_json_report(const std::string& path,
                              const std::vector<std::pair<std::string, Table>>&
                                  tables) {
  if (path.empty()) return;
  json::Writer w;
  w.begin_object().field("schema", kBenchSchema).key("tables").begin_array();
  for (const auto& [name, table] : tables) table.write_json(w, name);
  w.end_array().end_object();
  try {
    write_file(path, w.take());
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
  std::printf("wrote %s\n", path.c_str());
}

/// --trace <path> support. Benchmarks `arm()` one representative config
/// (observability costs nothing elsewhere: disabled engines allocate no
/// tracer at all) and `write()` the engine's trace after the run:
/// Chrome-trace JSON at `path` plus metrics at metrics_path_for(path).
struct TraceOption {
  std::string path;

  bool on() const { return !path.empty(); }

  /// Enable span tracing + metrics on this config.
  void arm(cgm::MachineConfig& cfg) const {
    if (on()) cfg.obs.trace = true;
  }

  /// Export the engine's trace. No-op when --trace was absent or the engine
  /// was not armed. A failed write prints the error and exits 2, as
  /// write_json_report does.
  void write(const cgm::Engine& engine) const {
    if (!on() || !engine.tracer()) return;
    try {
      obs::write_chrome_trace(path, *engine.tracer(), engine.metrics());
      std::printf("wrote %s\n", path.c_str());
      if (engine.metrics()) {
        const std::string mpath = obs::metrics_path_for(path);
        obs::write_metrics_json(mpath, *engine.metrics(),
                                engine.config().disk.num_disks,
                                engine.config().disk.block_bytes);
        std::printf("wrote %s\n", mpath.c_str());
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(2);
    }
  }
};

/// Parse `--trace <path>` (or `--trace=<path>`) from argv. Empty path =
/// flag absent; exits with a usage message when the flag is malformed.
inline TraceOption trace_arg(int argc, char** argv) {
  TraceOption opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "usage: %s [--trace <path>]\n", argv[0]);
        std::exit(2);
      }
      opt.path = argv[i + 1];
      return opt;
    }
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      opt.path = argv[i] + 8;
      return opt;
    }
  }
  return opt;
}

/// StorageBackend decorator that charges the analytic per-block service time
/// (cost_model.h) as a real sleep around every block transfer. On a
/// single-core box real CPU parallelism is unavailable, but device *latency*
/// still overlaps: W executor workers sleeping concurrently finish W blocks
/// per service time, exactly like W independent disk arms. `time_scale`
/// divides the modeled 1990s-era service time so benchmarks stay fast.
class ModeledLatencyBackend final : public pdm::StorageBackend {
 public:
  ModeledLatencyBackend(std::unique_ptr<pdm::StorageBackend> inner,
                        const pdm::DiskCostModel& cost, double time_scale)
      : StorageBackend(inner->geometry()),
        inner_(std::move(inner)),
        delay_(std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::duration<double>(
                cost.op_seconds(geometry().block_bytes) / time_scale))) {}

  void read_block(std::uint32_t disk, std::uint64_t track,
                  std::span<std::byte> out) override {
    std::this_thread::sleep_for(delay_);
    inner_->read_block(disk, track, out);
  }

  void write_block(std::uint32_t disk, std::uint64_t track,
                   std::span<const std::byte> data) override {
    std::this_thread::sleep_for(delay_);
    inner_->write_block(disk, track, data);
  }

  std::uint64_t tracks_used(std::uint32_t disk) const override {
    return inner_->tracks_used(disk);
  }
  void note_parallel_op() override { inner_->note_parallel_op(); }
  void sync() override { inner_->sync(); }

  std::chrono::microseconds delay() const { return delay_; }

 private:
  std::unique_ptr<pdm::StorageBackend> inner_;
  std::chrono::microseconds delay_;
};

/// One timed DiskArray workload over a modeled-latency backend: `tracks`
/// full-stripe writes followed by `tracks` full-stripe reads (the reads
/// submitted async so the pipeline stays deep), drained, and verified
/// byte-for-byte against the written pattern.
struct OverlapRun {
  double wall = 0.0;       ///< seconds, first submit to drained
  pdm::IoStats stats;      ///< exact: taken after the final drain
  bool data_ok = false;    ///< read-back matched the written pattern
};

inline OverlapRun overlap_workload(std::uint32_t D, std::size_t B,
                                   std::uint32_t io_threads,
                                   pdm::BackendKind kind,
                                   const std::string& dir,
                                   const pdm::DiskCostModel& cost,
                                   double time_scale, std::uint64_t tracks) {
  pdm::DiskGeometry geom;
  geom.num_disks = D;
  geom.block_bytes = B;
  auto backend = std::make_unique<ModeledLatencyBackend>(
      pdm::make_backend(kind, geom, dir), cost, time_scale);
  pdm::DiskArrayOptions opts;
  opts.io_threads = io_threads;
  pdm::DiskArray array(std::move(backend), opts);

  auto fill_byte = [](std::uint64_t t, std::uint32_t d) {
    return static_cast<std::byte>((t * 29 + d * 113 + 7) & 0xFF);
  };

  OverlapRun res;
  std::vector<std::vector<std::byte>> wbufs(D, std::vector<std::byte>(B));
  std::vector<pdm::WriteSlot> ws(D);
  std::vector<std::byte> rbytes(tracks * D * B);  // alive until drain()
  std::vector<pdm::ReadSlot> rs(D);

  Timer timer;
  for (std::uint64_t t = 0; t < tracks; ++t) {
    for (std::uint32_t d = 0; d < D; ++d) {
      std::fill(wbufs[d].begin(), wbufs[d].end(), fill_byte(t, d));
      ws[d] = {pdm::BlockAddr{d, t}, wbufs[d]};
    }
    array.parallel_write(ws);  // write-behind in async mode
  }
  for (std::uint64_t t = 0; t < tracks; ++t) {
    for (std::uint32_t d = 0; d < D; ++d) {
      rs[d] = {pdm::BlockAddr{d, t},
               std::span<std::byte>(rbytes).subspan((t * D + d) * B, B)};
    }
    array.parallel_read_async(rs);
  }
  array.drain();
  res.wall = timer.elapsed_s();
  res.stats = array.stats();

  res.data_ok = true;
  for (std::uint64_t t = 0; t < tracks && res.data_ok; ++t) {
    for (std::uint32_t d = 0; d < D && res.data_ok; ++d) {
      const std::byte want = fill_byte(t, d);
      const auto got = std::span<const std::byte>(rbytes).subspan(
          (t * D + d) * B, B);
      for (std::byte b : got) {
        if (b != want) {
          res.data_ok = false;
          break;
        }
      }
    }
  }
  return res;
}

inline std::string fmt(double x, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, x);
  return buf;
}

inline std::string fmt_sci(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2e", x);
  return buf;
}

inline std::string fmt_u(std::uint64_t x) { return std::to_string(x); }

}  // namespace emcgm::bench
