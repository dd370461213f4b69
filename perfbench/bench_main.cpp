// Benchmark binary: runs one named workload through the library's public
// API and prints one JSON object for perfbench/run.py to reduce.
//
//   emcgm_perfbench ref --workload W --seed S [--jobs FILE]
//   emcgm_perfbench cmp --workload W --seed S
//   emcgm_perfbench rep --workload W --seed S [--jobs FILE] [--trace-path P]
//
// `ref` prints the reference output digests (std::sort,
// graph::list_ranking_seq, svc::run_job_solo). `cmp` times the sequential
// and in-memory comparators of an engine workload. `rep` makes one
// repetition and prints its timings, counts and output digest; with
// --trace-path it arms the existing obs.trace switch and writes the Chrome
// trace to P.
//
// Every time here is this program's own steady_clock span around a public
// call (EmEngine::start/step/finish, svc::parse_service_json,
// JobService::submit/run_all) or a getrusage delta over the same window.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cgm/native_engine.h"
#include "emcgm/em_engine.h"
#include "graph/list_ranking.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "svc/service.h"
#include "svc/svc_json.h"
#include "svc/workload.h"

using namespace emcgm;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

// ---------------------------------------------------------------- output --

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

/// One flat JSON object, built field by field.
class JsonObj {
 public:
  JsonObj& num(const std::string& k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(k, buf);
  }
  JsonObj& u64(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  JsonObj& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + json_escape(v) + "\"");
  }
  JsonObj& raw(const std::string& k, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + k + "\":") + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }
  void print() const { std::printf("%s\n", text().c_str()); }

 private:
  std::string body_;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"0x%016llx\"",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Counted quantities of one repetition, in a fixed order. run.py requires
/// every one of them to repeat exactly across repetitions and processes.
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

std::string counts_json(const Counts& c) {
  JsonObj o;
  for (const auto& [k, v] : c) o.u64(k, v);
  return o.text();
}

void add_io(Counts& c, const pdm::IoStats& io) {
  c.emplace_back("parallel_ios", io.total_ops());
  c.emplace_back("read_ops", io.read_ops);
  c.emplace_back("write_ops", io.write_ops);
  c.emplace_back("blocks", io.total_blocks());
  c.emplace_back("full_stripe_ops", io.full_stripe_ops);
  c.emplace_back("retries", io.retries);
  c.emplace_back("fsyncs", io.fsyncs);
}

void add_net(Counts& c, const net::NetStats& n) {
  c.emplace_back("wire_bytes", n.wire_bytes);
  c.emplace_back("payload_bytes", n.delivered_payload_bytes);
  c.emplace_back("retransmissions", n.retransmissions);
}

// ----------------------------------------------------------------- usage --

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t minflt = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec;
  };
  return Usage{secs(ru.ru_utime), secs(ru.ru_stime),
               static_cast<std::uint64_t>(ru.ru_minflt)};
}

void add_usage(JsonObj& o, const Usage& a, const Usage& b) {
  o.num("user_s", b.user_s - a.user_s)
      .num("sys_s", b.sys_s - a.sys_s)
      .num("cpu_s", (b.user_s - a.user_s) + (b.sys_s - a.sys_s))
      .u64("minflt", b.minflt - a.minflt);
}

// ----------------------------------------------------- engine workloads --

/// sort_2host and listrank_4host_ft: one program on one EmEngine.
struct EngineCase {
  cgm::MachineConfig cfg;
  std::unique_ptr<cgm::Program> program;
  std::vector<std::byte> flat;  ///< stage-0 input slot, concatenated
  std::size_t item_bytes = 0;
};

EngineCase make_engine_case(const std::string& name, std::uint64_t seed) {
  EngineCase c;
  cgm::MachineConfig& cfg = c.cfg;
  cfg.seed = seed;
  cfg.backend = pdm::BackendKind::kMemory;
  std::string kind;
  std::uint64_t n = 0;
  if (name == "sort_2host") {
    // The quickstart machine.
    kind = "sort";
    n = 1u << 20;
    c.item_bytes = sizeof(std::uint64_t);
    cfg.v = 16;
    cfg.p = 2;
    cfg.disk.num_disks = 4;
    cfg.disk.block_bytes = 8192;
    cfg.balanced_routing = true;
    cfg.layout = cgm::MsgLayout::kChained;
  } else if (name == "listrank_4host_ft") {
    kind = "list_rank";
    n = 1u << 18;
    c.item_bytes = sizeof(graph::ListNode);
    cfg.v = 16;
    cfg.p = 4;
    cfg.use_threads = true;
    cfg.disk.num_disks = 4;
    cfg.disk.block_bytes = 4096;
    cfg.net.enabled = true;
    cfg.net.schedule = routing::ScheduleKind::kDirect;
    cfg.net.failover = true;
    cfg.checksums = true;
    cfg.checkpointing = true;
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  const auto workload = svc::make_workload(kind, n, seed);
  c.program = workload->program(0, seed);
  const auto inputs = workload->initial_inputs(cfg.v);
  for (const auto& part : inputs.at(0).parts) {
    c.flat.insert(c.flat.end(), part.begin(), part.end());
  }
  return c;
}

std::vector<cgm::PartitionSet> partition(const EngineCase& c) {
  std::vector<cgm::PartitionSet> inputs(1);
  inputs[0].parts =
      svc::chunk_parts(c.flat.data(), c.flat.size(), c.item_bytes, c.cfg.v);
  return inputs;
}

template <typename T>
std::vector<T> flat_as(const EngineCase& c) {
  std::vector<T> items(c.flat.size() / sizeof(T));
  std::memcpy(items.data(), c.flat.data(), items.size() * sizeof(T));
  return items;
}

template <typename T>
std::uint64_t hash_items(const std::vector<T>& items) {
  std::vector<cgm::PartitionSet> outs(1);
  outs[0].parts.resize(1);
  const auto* b = reinterpret_cast<const std::byte*>(items.data());
  outs[0].parts[0].assign(b, b + items.size() * sizeof(T));
  return svc::output_hash(outs);
}

/// The output digest a correct run must produce, from the sequential
/// reference of the workload's own inputs.
std::uint64_t engine_reference_hash(const std::string& name,
                                    const EngineCase& c) {
  if (name == "sort_2host") {
    auto keys = flat_as<std::uint64_t>(c);
    std::sort(keys.begin(), keys.end());
    return hash_items(keys);
  }
  return hash_items(graph::list_ranking_seq(flat_as<graph::ListNode>(c)));
}

/// One repetition: set-up (engine construction + input partitioning +
/// start), then the run window (the step loop + finish).
JsonObj engine_rep(const EngineCase& c, bool traced,
                   const std::string& trace_path) {
  cgm::MachineConfig cfg = c.cfg;
  cfg.obs.trace = traced;
  JsonObj o;
  o.u64("traced", traced ? 1 : 0);

  const auto t0 = Clock::now();
  em::EmEngine eng(std::move(cfg));
  auto inputs = partition(c);
  const auto t_start = Clock::now();
  eng.start(*c.program, std::move(inputs));
  const auto t1 = Clock::now();

  const obs::Tracer* tr = eng.tracer();
  const std::uint64_t win0_ns = tr ? tr->now_ns() : 0;
  const Usage u0 = usage_now();
  std::vector<double> step_s;
  Clock::time_point t_finish;
  for (;;) {
    const auto ts = Clock::now();
    const bool more = eng.step();
    t_finish = Clock::now();
    step_s.push_back(seconds_between(ts, t_finish));
    if (!more) break;
  }
  auto outs = eng.finish();
  const auto t2 = Clock::now();
  const Usage u1 = usage_now();
  const std::uint64_t win1_ns = tr ? tr->now_ns() : 0;

  o.num("setup_s", seconds_between(t0, t1))
      .num("start_s", seconds_between(t_start, t1))
      .num("run_s", seconds_between(t1, t2))
      .num("finish_s", seconds_between(t_finish, t2))
      .num("step_p50_s", median(step_s))
      .num("step_max_s", *std::max_element(step_s.begin(), step_s.end()));
  add_usage(o, u0, u1);
  o.raw("hash", hex(svc::output_hash(outs)));

  const cgm::RunResult& res = eng.last_result();
  std::uint64_t tracks = 0;
  for (std::uint32_t r = 0; r < c.cfg.p; ++r) tracks += eng.tracks_used(r);
  std::uint64_t net_rounds = 0;
  for (const auto& s : res.comm.steps) net_rounds += s.wire_bytes > 0 ? 1 : 0;
  Counts counts;
  add_io(counts, res.io);
  add_net(counts, res.net);
  counts.emplace_back("comm_bytes", res.comm.total_bytes());
  counts.emplace_back("net_rounds", net_rounds);
  counts.emplace_back("app_rounds", res.app_rounds);
  counts.emplace_back("comm_steps", res.comm_steps);
  counts.emplace_back("h_max_bytes", res.comm.max_h_bytes());
  counts.emplace_back("steps", step_s.size());
  counts.emplace_back("stored_bytes", tracks * c.cfg.disk.block_bytes);
  counts.emplace_back("input_bytes", c.flat.size());
  o.raw("counts", counts_json(counts));

  if (traced) {
    obs::write_chrome_trace(trace_path, *tr, eng.metrics());
    o.str("trace", trace_path).u64("win0_ns", win0_ns).u64("win1_ns", win1_ns);
  }
  return o;
}

/// Sequential and in-memory comparators of the same program and inputs:
/// std::sort of the keys (sort only) and a NativeEngine run.
JsonObj engine_comparators(const std::string& name, const EngineCase& c) {
  constexpr int kReps = 3;
  JsonObj o;
  std::vector<double> sort_s, native_s;
  std::uint64_t native_hash = 0;
  for (int i = 0; i < kReps; ++i) {
    if (name == "sort_2host") {
      auto keys = flat_as<std::uint64_t>(c);
      const auto t0 = Clock::now();
      std::sort(keys.begin(), keys.end());
      sort_s.push_back(seconds_between(t0, Clock::now()));
    }
    cgm::MachineConfig ncfg;
    ncfg.v = c.cfg.v;
    ncfg.seed = c.cfg.seed;
    cgm::NativeEngine native(ncfg);
    auto inputs = partition(c);
    const auto t0 = Clock::now();
    auto outs = native.run(*c.program, std::move(inputs));
    native_s.push_back(seconds_between(t0, Clock::now()));
    native_hash = svc::output_hash(outs);
  }
  o.num("ref_std_sort_s", median(sort_s))
      .num("native_run_s", median(native_s))
      .raw("native_hash", hex(native_hash))
      .u64("native_runs", kReps);
  return o;
}

// -------------------------------------------------------------- jobsvc --

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Tenant seeds are derived from the workload seed: the job file's "seed"
/// is each tenant's offset.
void seed_tenants(svc::ServiceSpec& spec, std::uint64_t seed) {
  for (auto& j : spec.jobs) j.seed = seed * 1000 + j.seed;
}

/// One repetition: set-up (job-file parse + JobService construction +
/// every submit), then the run window (run_all). Clock reads in the public
/// per-step hook place every tenant step on the wall clock.
JsonObj svc_rep(const std::string& text, std::uint64_t seed, bool traced,
                const std::string& trace_path) {
  struct Mark {
    std::size_t slot;
    std::uint64_t tick;
    double at_s;  ///< since run_all was called
  };
  std::mutex mu;
  std::vector<Mark> marks;  // guarded by mu
  marks.reserve(4096);
  Clock::time_point run0;

  JsonObj o;
  o.u64("traced", traced ? 1 : 0);
  const auto t0 = Clock::now();
  svc::ServiceSpec spec = svc::parse_service_json(text);
  const auto t_parsed = Clock::now();
  seed_tenants(spec, seed);
  spec.service.trace = traced;
  spec.service.step_delay = [&](std::size_t slot, std::uint64_t tick) {
    const double at = seconds_between(run0, Clock::now());
    std::lock_guard<std::mutex> lock(mu);
    marks.push_back(Mark{slot, tick, at});
  };
  svc::JobService service(spec.service);
  const auto t_built = Clock::now();
  for (const auto& j : spec.jobs) service.submit(j);
  const auto t1 = Clock::now();
  run0 = t1;
  const Usage u0 = usage_now();
  const auto results = service.run_all();
  const auto t2 = Clock::now();
  const Usage u1 = usage_now();
  const double run_s = seconds_between(t1, t2);

  o.num("setup_s", seconds_between(t0, t1))
      .num("parse_s", seconds_between(t0, t_parsed))
      .num("construct_s", seconds_between(t_parsed, t_built))
      .num("submit_s", seconds_between(t_built, t1))
      .num("run_s", run_s);
  add_usage(o, u0, u1);

  // Wall-clock start of every tick that stepped a tenant, and who stepped.
  std::map<std::uint64_t, double> tick_at;
  std::map<std::uint64_t, std::vector<std::size_t>> stepped;
  for (const Mark& m : marks) {
    auto [it, fresh] = tick_at.emplace(m.tick, m.at_s);
    if (!fresh) it->second = std::min(it->second, m.at_s);
    stepped[m.tick].push_back(m.slot);
  }
  std::vector<double> tick_s;
  for (auto it = tick_at.begin(); it != tick_at.end(); ++it) {
    const auto next = std::next(it);
    tick_s.push_back((next == tick_at.end() ? run_s : next->second) -
                     it->second);
  }
  o.num("tick_p50_s", median(tick_s))
      .num("tick_max_s",
           tick_s.empty() ? 0.0
                          : *std::max_element(tick_s.begin(), tick_s.end()));

  // A tenant arrives when the first stepping tick at or after its arrival
  // tick starts (run_all's start for tick-0 arrivals) and completes when
  // the first stepping tick after its last step starts (run_all's end when
  // it was the last to finish).
  auto tick_start_from = [&](std::uint64_t tick, double fallback) {
    const auto it = tick_at.lower_bound(tick);
    return it == tick_at.end() ? fallback : it->second;
  };
  pdm::IoStats io;
  net::NetStats net;
  std::uint64_t steps = 0, preemptions = 0, app_rounds = 0, waits = 0;
  std::string tenants;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const svc::JobResult& r = results[i];
    const svc::JobSpec& j = spec.jobs[i];
    const double arrive =
        j.arrival_tick <= 1 ? 0.0 : tick_start_from(j.arrival_tick, run_s);
    const double done = tick_start_from(r.end_tick + 1, run_s);
    // Ticks in which some tenant stepped while this admitted one waited.
    std::uint64_t wait = 0;
    for (const auto& [tick, slots] : stepped) {
      if (tick < r.admit_tick || tick > r.end_tick) continue;
      if (std::find(slots.begin(), slots.end(), i) == slots.end()) ++wait;
    }
    io += r.io;
    net += r.net;
    steps += r.supersteps;
    preemptions += r.preemptions;
    app_rounds += r.app_rounds;
    waits += wait;
    JsonObj t;
    t.str("name", r.name)
        .u64("ok", r.ok ? 1 : 0)
        .str("error", r.error)
        .raw("hash", hex(r.output_hash))
        .u64("priority", j.priority)
        .num("turnaround_s", done - arrive);
    tenants += (tenants.empty() ? "" : ",") + t.text();
  }
  o.raw("tenants", "[" + tenants + "]");

  Counts counts;
  add_io(counts, io);
  add_net(counts, net);
  counts.emplace_back("app_rounds", app_rounds);
  counts.emplace_back("ticks", service.ticks());
  counts.emplace_back("tenant_steps", steps);
  counts.emplace_back("preemptions", preemptions);
  counts.emplace_back("runnable_wait_ticks", waits);
  o.raw("counts", counts_json(counts));

  if (traced) {
    service.write_trace(trace_path);
    o.str("trace", trace_path);
  }
  return o;
}

// ------------------------------------------------------------------ main --

struct Options {
  std::string mode;  ///< ref | cmp | rep
  std::string workload;
  std::uint64_t seed = 1;
  std::string jobs_file;
  std::string trace_path;  ///< rep: arm obs.trace and write the trace here
};

Options parse_args(int argc, char** argv) {
  Options opt;
  if (argc < 2) throw std::runtime_error("usage: emcgm_perfbench ref|cmp|rep");
  opt.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::stoull(v);
    } else if (k == "--jobs") {
      opt.jobs_file = v;
    } else if (k == "--trace-path") {
      opt.trace_path = v;
    } else {
      throw std::runtime_error("unknown option " + k);
    }
  }
  if (opt.mode != "ref" && opt.mode != "cmp" && opt.mode != "rep") {
    throw std::runtime_error("mode must be ref, cmp or rep");
  }
  return opt;
}

/// The output digests a correct run must produce.
JsonObj reference(const Options& opt, const EngineCase& ec,
                  const std::string& job_text) {
  JsonObj o;
  if (opt.workload != "jobsvc_mix") {
    return o.raw("hash", hex(engine_reference_hash(opt.workload, ec)));
  }
  svc::ServiceSpec spec = svc::parse_service_json(job_text);
  seed_tenants(spec, opt.seed);
  std::string solo;
  for (const auto& j : spec.jobs) {
    const svc::JobResult r = svc::run_job_solo(j, spec.service.pool);
    JsonObj t;
    t.str("name", r.name).u64("ok", r.ok ? 1 : 0).raw("hash",
                                                      hex(r.output_hash));
    solo += (solo.empty() ? "" : ",") + t.text();
  }
  return o.raw("tenants", "[" + solo + "]");
}

int run(const Options& opt) {
  const bool is_svc = opt.workload == "jobsvc_mix";
  EngineCase ec;
  std::string job_text;
  if (is_svc) {
    job_text = read_file(opt.jobs_file);
  } else {
    ec = make_engine_case(opt.workload, opt.seed);
  }
  JsonObj o;
  if (opt.mode == "ref") {
    o = reference(opt, ec, job_text);
  } else if (opt.mode == "cmp") {
    o = engine_comparators(opt.workload, ec);
  } else {
    // One repetition per process: the allocator and the page tables start
    // empty every time, as in a user's one-shot run, so the high-water RSS
    // below is this repetition's own.
    const bool traced = !opt.trace_path.empty();
    try {
      o = is_svc ? svc_rep(job_text, opt.seed, traced, opt.trace_path)
                 : engine_rep(ec, traced, opt.trace_path);
    } catch (const std::exception& e) {
      // A typed failure is a failed operation, not a failed benchmark.
      o = JsonObj{};
      o.str("error", e.what());
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    o.u64("maxrss_kb", static_cast<std::uint64_t>(ru.ru_maxrss))
        .str("compiler", PERFBENCH_COMPILER)
        .str("build_type", PERFBENCH_BUILD_TYPE);
  }
  o.str("kind", opt.mode).print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "emcgm_perfbench: %s\n", e.what());
    return 2;
  }
}
