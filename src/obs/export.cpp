#include "obs/export.h"

#include <initializer_list>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pdm/cost_model.h"
#include "util/file.h"
#include "util/json.h"

namespace emcgm::obs {

namespace {

void write_event_args(json::Writer& w, const Span& s) {
  w.key("args").begin_object();
  w.field("step", s.step).field("round", s.round);
  if (s.group >= 0) w.field("group", s.group).field("depth", s.depth);
  if (s.vproc >= 0) w.field("vproc", s.vproc);
  const SpanKindInfo& info = span_info(s.kind);
  if (info.aux0) w.field(info.aux0, s.aux0);
  if (info.aux1) w.field(info.aux1, s.aux1);
  if (s.io.total_ops() != 0 || s.io.fsyncs != 0) {
    w.field("read_ops", s.io.read_ops).field("write_ops", s.io.write_ops);
    w.field("blocks_read", s.io.blocks_read);
    w.field("blocks_written", s.io.blocks_written);
    w.field("retries", s.io.retries).field("fsyncs", s.io.fsyncs);
  }
  w.end_object();
}

/// Chrome trace times are microseconds.
double us(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

/// One counter ("C") sample on lane 0 of `pid`.
void emit_counter(json::Writer& w, const char* name, std::uint32_t pid,
                  std::uint64_t ns,
                  std::initializer_list<std::pair<const char*, std::uint64_t>>
                      args) {
  w.begin_object().field("ph", "C").field("name", name).field("pid", pid);
  w.field("tid", 0).field("ts", us(ns)).key("args").begin_object();
  for (const auto& [k, v] : args) w.field(k, v);
  w.end_object().end_object();
}

/// Emit one tenant's metadata, spans and counter tracks with every pid
/// offset by `pid_base` (tenants of one document get disjoint bases).
void emit_tenant(json::Writer& w, const Tracer& tracer,
                 const MetricsRegistry* metrics, std::uint32_t pid_base) {
  const auto spans = tracer.merged();
  const std::uint32_t engine = pid_base + tracer.engine_pid();

  // Process/thread naming metadata so Perfetto's timeline reads as the
  // machine: one process per real host, one thread lane per store group,
  // plus the engine process for barrier work and net pair lanes.
  std::set<std::pair<std::uint32_t, std::uint32_t>> lanes;
  for (const auto& s : spans) lanes.emplace(s.host, s.track);
  // Tenant-scoped runs (ObsConfig::tenant, set by the job service) prefix
  // every process name, so traces of co-resident jobs stay attributable
  // after export. The label is pre-sanitized by Tracer::set_tenant.
  const std::string tp =
      tracer.tenant().empty() ? std::string() : tracer.tenant() + ": ";
  for (std::uint32_t h = 0; h <= tracer.p(); ++h) {
    std::string name = "host " + std::to_string(h);
    if (h == tracer.engine_pid()) name = "engine";
    w.begin_object().field("ph", "M").field("name", "process_name");
    w.field("pid", pid_base + h).key("args").begin_object();
    w.field("name", tp + name).end_object().end_object();
  }
  for (const auto& [pid, tid] : lanes) {
    std::string lane = "group " + std::to_string(tid);
    if (pid == tracer.engine_pid()) {
      lane = tid == 0 ? "barrier" : "net pair " + std::to_string(tid - 1);
    }
    w.begin_object().field("ph", "M").field("name", "thread_name");
    w.field("pid", pid_base + pid).field("tid", tid).key("args").begin_object();
    w.field("name", lane).end_object().end_object();
  }

  for (const auto& s : spans) {
    const SpanKindInfo& info = span_info(s.kind);
    w.begin_object().field("name", info.name).field("cat", info.category);
    w.field("ph", "X").field("ts", us(s.start_ns)).field("dur", us(s.dur_ns));
    w.field("pid", pid_base + s.host).field("tid", s.track);
    write_event_args(w, s);
    w.end_object();
  }

  // Per-superstep counter tracks aligned with the span timeline.
  if (metrics) {
    for (const auto& m : metrics->steps()) {
      if (m.end_ns == 0) continue;
      emit_counter(w, "pdm", engine, m.end_ns,
                   {{"io_ops", m.io.total_ops()},
                    {"wire_bytes", m.net.wire_bytes},
                    {"comm_bytes", m.has_comm ? m.comm.bytes : 0}});
    }
  }

  // Membership-epoch counter track: steps at run start and at every death
  // or rejoin, aligned with the recovery/rejoin spans (empty without
  // fail-over activity tracking).
  for (const auto& e : tracer.membership_epoch_samples()) {
    emit_counter(w, "membership_epoch", engine, e.ns, {{"epoch", e.epoch}});
  }

  // Async executor queue-depth counter track, one per host running with
  // io_threads > 0 (empty otherwise).
  for (const auto& d : tracer.queue_depth_samples()) {
    emit_counter(w, "io_queue_depth", pid_base + d.host, d.ns,
                 {{"depth", d.depth}});
  }
}

}  // namespace

std::string metrics_path_for(const std::string& trace_path) {
  const std::string suffix = ".json";
  std::string stem = trace_path;
  if (stem.size() > suffix.size() &&
      stem.compare(stem.size() - suffix.size(), suffix.size(), suffix) == 0) {
    stem.resize(stem.size() - suffix.size());
  }
  return stem + ".metrics.json";
}

void write_chrome_trace(const std::string& path, const Tracer& tracer,
                        const MetricsRegistry* metrics) {
  write_chrome_trace_multi(path, {TenantTrace{&tracer, metrics}});
}

void write_chrome_trace_multi(const std::string& path,
                              const std::vector<TenantTrace>& tenants) {
  json::Writer w;
  w.begin_object().field("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  // Canonical flush order: tenants in the order given (the job service
  // passes submission order), each on its own pid range — tenant i owns
  // pids [base, base + p_i], so lanes of different tenants can never
  // interleave however the worker pool scheduled their spans.
  std::uint32_t pid_base = 0;
  for (const TenantTrace& t : tenants) {
    emit_tenant(w, *t.tracer, t.metrics, pid_base);
    pid_base += t.tracer->p() + 1;
  }
  w.end_array().end_object();
  write_file(path, w.take());
}

void write_metrics_json(const std::string& path, const MetricsRegistry& m,
                        std::uint32_t num_disks, std::size_t block_bytes) {
  const pdm::DiskCostModel model;
  json::Writer w;
  w.begin_object().field("schema", kMetricsSchema);
  w.field("num_disks", num_disks).field("block_bytes", block_bytes);
  w.key("model").begin_object();
  w.field("avg_seek_ms", model.avg_seek_ms);
  w.field("avg_rotational_ms", model.avg_rotational_ms);
  w.field("bandwidth_mb_s", model.bandwidth_mb_s);
  w.field("op_seconds", model.op_seconds(block_bytes)).end_object();
  w.key("supersteps").begin_array();
  for (const auto& s : m.steps()) {
    w.begin_object().field("step", s.step).field("round", s.round);
    w.field("phase", s.phase).field("wall_s", s.wall_s);
    w.field("predicted_io_s", s.model_io_s).key("counters").begin_object();
    for (const auto& [name, count] : MetricsRegistry::labeled(s)) {
      w.field(name, count);
    }
    w.end_object().end_object();
  }
  const pdm::IoStats total = m.total_io();
  w.end_array().key("totals").begin_object();
  w.field("io_ops", total.total_ops()).field("blocks", total.total_blocks());
  w.field("predicted_io_s", model.io_seconds(total, block_bytes));
  w.end_object().end_object();
  write_file(path, w.take());
}

}  // namespace emcgm::obs
