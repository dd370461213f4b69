#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pdm/cost_model.h"
#include "util/error.h"

namespace emcgm::obs {

namespace {

// A file being written. fprintf buffers, so a full disk may only show at
// the flush: close() reports a failed write, flush or close as a typed
// Error naming the path. A writer that throws first leaves the destructor
// to close the file without a second error.
class OutFile {
 public:
  explicit OutFile(const std::string& path)
      : path_(path), f_(std::fopen(path.c_str(), "w")) {
    if (!f_) throw Error("cannot open " + path + " for writing");
  }
  ~OutFile() {
    if (f_) std::fclose(f_);
  }
  OutFile(const OutFile&) = delete;
  OutFile& operator=(const OutFile&) = delete;

  std::FILE* get() const { return f_; }

  void close() {
    const bool write_failed = std::ferror(f_) != 0;
    const bool close_failed = std::fclose(f_) != 0;
    f_ = nullptr;
    if (write_failed || close_failed) throw Error("cannot write " + path_);
  }

 private:
  std::string path_;
  std::FILE* f_;
};

void write_event_args(std::FILE* f, const Span& s) {
  std::fprintf(f, "\"args\":{\"step\":%llu,\"round\":%llu",
               static_cast<unsigned long long>(s.step),
               static_cast<unsigned long long>(s.round));
  if (s.group >= 0) {
    std::fprintf(f, ",\"group\":%lld, \"depth\":%u",
                 static_cast<long long>(s.group), s.depth);
  }
  if (s.vproc >= 0) {
    std::fprintf(f, ",\"vproc\":%lld", static_cast<long long>(s.vproc));
  }
  const SpanKindInfo& info = span_info(s.kind);
  if (info.aux0) {
    std::fprintf(f, ",\"%s\":%llu", info.aux0,
                 static_cast<unsigned long long>(s.aux0));
  }
  if (info.aux1) {
    std::fprintf(f, ",\"%s\":%llu", info.aux1,
                 static_cast<unsigned long long>(s.aux1));
  }
  if (s.io.total_ops() != 0 || s.io.fsyncs != 0) {
    std::fprintf(f,
                 ",\"read_ops\":%llu,\"write_ops\":%llu,\"blocks_read\":%llu,"
                 "\"blocks_written\":%llu,\"retries\":%llu,\"fsyncs\":%llu",
                 static_cast<unsigned long long>(s.io.read_ops),
                 static_cast<unsigned long long>(s.io.write_ops),
                 static_cast<unsigned long long>(s.io.blocks_read),
                 static_cast<unsigned long long>(s.io.blocks_written),
                 static_cast<unsigned long long>(s.io.retries),
                 static_cast<unsigned long long>(s.io.fsyncs));
  }
  std::fprintf(f, "}");
}

/// Emit one tenant's metadata, spans and counter tracks with every pid
/// offset by `pid_base` (tenants of one document get disjoint bases).
void emit_tenant(std::FILE* f, const Tracer& tracer,
                 const MetricsRegistry* metrics, std::uint32_t pid_base,
                 bool& first) {
  const auto spans = tracer.merged();
  auto sep = [&] {
    std::fprintf(f, first ? "" : ",\n");
    first = false;
  };

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
    sep();
    if (h == tracer.engine_pid()) {
      std::fprintf(f,
                   "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%u,"
                   "\"args\":{\"name\":\"%sengine\"}}",
                   pid_base + h, tp.c_str());
    } else {
      std::fprintf(f,
                   "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%u,"
                   "\"args\":{\"name\":\"%shost %u\"}}",
                   pid_base + h, tp.c_str(), h);
    }
  }
  for (const auto& [pid, tid] : lanes) {
    sep();
    if (pid == tracer.engine_pid() && tid == 0) {
      std::fprintf(f,
                   "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%u,"
                   "\"tid\":%u,\"args\":{\"name\":\"barrier\"}}",
                   pid_base + pid, tid);
    } else if (pid == tracer.engine_pid()) {
      std::fprintf(f,
                   "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%u,"
                   "\"tid\":%u,\"args\":{\"name\":\"net pair %u\"}}",
                   pid_base + pid, tid, tid - 1);
    } else {
      std::fprintf(f,
                   "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%u,"
                   "\"tid\":%u,\"args\":{\"name\":\"group %u\"}}",
                   pid_base + pid, tid, tid);
    }
  }

  for (const auto& s : spans) {
    sep();
    const SpanKindInfo& info = span_info(s.kind);
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%u,",
                 info.name, info.category,
                 static_cast<double>(s.start_ns) / 1000.0,
                 static_cast<double>(s.dur_ns) / 1000.0, pid_base + s.host,
                 s.track);
    write_event_args(f, s);
    std::fprintf(f, "}");
  }

  // Per-superstep counter tracks aligned with the span timeline.
  if (metrics) {
    for (const auto& m : metrics->steps()) {
      if (m.end_ns == 0) continue;
      sep();
      std::fprintf(f,
                   "{\"ph\":\"C\",\"name\":\"pdm\",\"pid\":%u,\"tid\":0,"
                   "\"ts\":%.3f,\"args\":{\"io_ops\":%llu,\"wire_bytes\":%llu,"
                   "\"comm_bytes\":%llu}}",
                   pid_base + tracer.engine_pid(),
                   static_cast<double>(m.end_ns) / 1000.0,
                   static_cast<unsigned long long>(m.io.total_ops()),
                   static_cast<unsigned long long>(m.net.wire_bytes),
                   static_cast<unsigned long long>(
                       m.has_comm ? m.comm.bytes : 0));
    }
  }

  // Membership-epoch counter track: steps at run start and at every death
  // or rejoin, aligned with the recovery/rejoin spans (empty without
  // fail-over activity tracking).
  for (const auto& e : tracer.membership_epoch_samples()) {
    sep();
    std::fprintf(f,
                 "{\"ph\":\"C\",\"name\":\"membership_epoch\",\"pid\":%u,"
                 "\"tid\":0,\"ts\":%.3f,\"args\":{\"epoch\":%llu}}",
                 pid_base + tracer.engine_pid(),
                 static_cast<double>(e.ns) / 1000.0,
                 static_cast<unsigned long long>(e.epoch));
  }

  // Async executor queue-depth counter track, one per host running with
  // io_threads > 0 (empty otherwise).
  for (const auto& d : tracer.queue_depth_samples()) {
    sep();
    std::fprintf(f,
                 "{\"ph\":\"C\",\"name\":\"io_queue_depth\",\"pid\":%u,"
                 "\"tid\":0,\"ts\":%.3f,\"args\":{\"depth\":%u}}",
                 pid_base + d.host, static_cast<double>(d.ns) / 1000.0,
                 d.depth);
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
  OutFile out(path);
  std::FILE* f = out.get();
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  std::uint32_t pid_base = 0;
  // Canonical flush order: tenants in the order given (the job service
  // passes submission order), each on its own pid range — tenant i owns
  // pids [base, base + p_i], so lanes of different tenants can never
  // interleave however the worker pool scheduled their spans.
  for (const TenantTrace& t : tenants) {
    emit_tenant(f, *t.tracer, t.metrics, pid_base, first);
    pid_base += t.tracer->p() + 1;
  }
  std::fprintf(f, "\n]}\n");
  out.close();
}

void write_metrics_json(const std::string& path, const MetricsRegistry& m,
                        std::uint32_t num_disks, std::size_t block_bytes,
                        const std::string& tenant) {
  OutFile out(path);
  std::FILE* f = out.get();
  const pdm::DiskCostModel model;
  std::fprintf(f, "{");
  if (!tenant.empty()) std::fprintf(f, "\"tenant\":\"%s\",", tenant.c_str());
  std::fprintf(f,
               "\"schema\":\"%s\",\"num_disks\":%u,\"block_bytes\":%zu,\n"
               " \"model\":{\"avg_seek_ms\":%.4f,\"avg_rotational_ms\":%.4f,"
               "\"bandwidth_mb_s\":%.4f,\"op_seconds\":%.9f},\n"
               " \"supersteps\":[",
               kMetricsSchema, num_disks, block_bytes, model.avg_seek_ms,
               model.avg_rotational_ms, model.bandwidth_mb_s,
               model.op_seconds(block_bytes));
  for (std::size_t i = 0; i < m.steps().size(); ++i) {
    const auto& s = m.steps()[i];
    std::fprintf(f, "%s\n  {\"step\":%llu,\"round\":%llu,\"phase\":\"%s\","
                    "\"wall_s\":%.9f,\"predicted_io_s\":%.9f,\"counters\":{",
                 i == 0 ? "" : ",",
                 static_cast<unsigned long long>(s.step),
                 static_cast<unsigned long long>(s.round), s.phase, s.wall_s,
                 s.model_io_s);
    const auto counters = MetricsRegistry::labeled(s);
    for (std::size_t c = 0; c < counters.size(); ++c) {
      std::fprintf(f, "%s\"%s\":%llu", c == 0 ? "" : ",", counters[c].first,
                   static_cast<unsigned long long>(counters[c].second));
    }
    std::fprintf(f, "}}");
  }
  const pdm::IoStats total = m.total_io();
  std::fprintf(f,
               "\n ],\n \"totals\":{\"io_ops\":%llu,\"blocks\":%llu,"
               "\"predicted_io_s\":%.9f}}\n",
               static_cast<unsigned long long>(total.total_ops()),
               static_cast<unsigned long long>(total.total_blocks()),
               model.io_seconds(total, block_bytes));
  out.close();
}

}  // namespace emcgm::obs
