// Multi-tenant job service benchmark + hard gate. Three things are proven
// on every run, not just reported:
//
//   1. Isolation: a four-tenant service run — mixed workloads, a multi-host
//      sort, a late-arriving high-priority job that preempts the others at
//      superstep barriers, and a seeded chaos campaign armed on one tenant —
//      leaves every tenant passing the tenant check (svc::tenant_mismatches)
//      against the same job run alone on an empty pool.
//   2. Fair share: two equal-priority tenants with identical work may not
//      slow each other down asymmetrically — the ratio of their service
//      spans (admit..end ticks) stays under kFairnessBound; deficit
//      round-robin over counted bytes is what enforces it.
//   3. Prefetch depth: widening the engine's read-ahead window changes wall
//      time only — outputs and counted I/O stay bit-identical per depth.
//   4. Parallel executor: four non-co-resident tenants (threads, async I/O
//      and a targeted chaos campaign among them) swept over workers
//      1/2/4/8 — every tenant passes the tenant check at every count
//      against the same job run alone (hard gate), with the wall-time
//      speedup reported and, when the machine has >= 4 cores, gated > 1.0x
//      at workers=4 on the medians of five alternating runs of workers=1
//      and workers=4.
//
// Exit 2 on any gate failure, so CI can hold the line.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "svc/job.h"
#include "svc/pool.h"
#include "svc/service.h"
#include "svc/svc_json.h"

using namespace emcgm;
using namespace emcgm::bench;
using namespace emcgm::svc;

namespace {

constexpr double kFairnessBound = 1.25;

JobSpec spec_of(const std::string& name, const std::string& workload,
                std::uint64_t n, std::uint64_t seed) {
  JobSpec s;
  s.name = name;
  s.workload = workload;
  s.n = n;
  s.seed = seed;
  s.v = 8;
  s.hosts = 1;
  s.disks = 4;
  return s;
}

PoolConfig bench_pool() {
  PoolConfig p;
  p.hosts = 4;
  p.disks_per_host = 8;
  p.block_bytes = 4096;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = json_arg(argc, argv);
  bool gate_ok = true;

  // ---- 1. Mixed-tenant service run vs solo references -------------------
  std::printf(
      "Multi-tenant job service: 4 tenants on a 4-host x 8-disk pool.\n"
      "maxC arrives late at priority 2 and preempts the running tenants at\n"
      "their next superstep barrier; 'victim' runs under a seeded chaos\n"
      "campaign (absorbed transient disk faults) armed on it alone.\n\n");

  ServiceSpec sspec;
  sspec.service.pool = bench_pool();
  sspec.service.quantum_bytes = 1 << 18;
  {
    auto s = spec_of("sortA", "sort", 4096, 7);
    s.hosts = 2;  // its own simulated network
    sspec.jobs.push_back(s);
  }
  sspec.jobs.push_back(spec_of("rankB", "list_rank", 2048, 11));
  {
    auto s = spec_of("maxC", "maxima", 2048, 13);
    s.priority = 2;
    s.arrival_tick = 6;
    sspec.jobs.push_back(s);
  }
  sspec.jobs.push_back(spec_of("victim", "sort", 2048, 7));
  sspec.chaos_seed = 1;  // known-absorbed draw: retries, no abort
  sspec.chaos_shape.max_events = 8;
  sspec.chaos_shape.allow_kill = false;
  sspec.chaos_shape.allow_rejoin = false;
  sspec.chaos_shape.allow_disk_crash = false;
  sspec.chaos_shape.target_tenant = 3;
  arm_service_chaos(sspec);

  JobService service(sspec.service);
  for (const JobSpec& j : sspec.jobs) service.submit(j);
  const auto results = service.run_all();

  Table svc_table({"tenant", "workload", "ok", "supersteps", "preemptions",
                   "admit..end ticks", "charged bytes", "io retries",
                   "wire bytes", "identical to solo"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JobResult& r = results[i];
    const std::string diffs =
        tenant_mismatches(r, run_job_solo(sspec.jobs[i], sspec.service.pool));
    const bool same = diffs.empty();
    svc_table.row({r.name, sspec.jobs[i].workload, r.ok ? "yes" : "no",
                   fmt_u(r.supersteps), fmt_u(r.preemptions),
                   fmt_u(r.admit_tick) + ".." + fmt_u(r.end_tick),
                   fmt_u(r.charged_bytes), fmt_u(r.io.retries),
                   fmt_u(r.net.wire_bytes), same ? "yes" : "NO"});
    if (!r.ok) {
      std::fprintf(stderr, "FAIL: tenant %s did not complete: %s\n",
                   r.name.c_str(), r.error.c_str());
      gate_ok = false;
    }
    if (!same) {
      std::fprintf(stderr,
                   "FAIL: tenant %s diverged from its solo run — the"
                   " isolation contract is broken (service != solo): %s\n",
                   r.name.c_str(), diffs.c_str());
      gate_ok = false;
    }
  }
  svc_table.print();

  // The scenario must actually exercise the scheduler: the high-priority
  // late arrival finishes before the tenants it preempted, someone was
  // preempted, and the chaos campaign really fired on its target only.
  const JobResult& hi = results[2];
  std::uint64_t preempted = 0;
  for (const auto& r : results) preempted += r.preemptions;
  if (hi.end_tick >= results[0].end_tick ||
      hi.end_tick >= results[1].end_tick) {
    std::fprintf(stderr,
                 "FAIL: the priority-2 tenant did not overtake the"
                 " priority-0 tenants\n");
    gate_ok = false;
  }
  if (preempted == 0) {
    std::fprintf(stderr, "FAIL: no tenant was ever preempted\n");
    gate_ok = false;
  }
  if (results[3].io.retries == 0) {
    std::fprintf(stderr, "FAIL: the chaos campaign never fired\n");
    gate_ok = false;
  }
  for (std::size_t i = 0; i < 3; ++i) {
    if (results[i].io.retries != 0) {
      std::fprintf(stderr, "FAIL: chaos leaked into tenant %s\n",
                   results[i].name.c_str());
      gate_ok = false;
    }
  }

  // ---- 2. Fair share between equal-priority tenants ---------------------
  std::printf(
      "\nFair share: two identical sort tenants at one priority. The DRR\n"
      "arbiter grants bursts of counted bytes, so neither tenant's span\n"
      "(admit..end) may exceed the other's by more than %.2fx.\n\n",
      kFairnessBound);

  ServiceConfig fair_cfg;
  fair_cfg.pool = bench_pool();
  fair_cfg.quantum_bytes = 1 << 17;
  JobService fair(fair_cfg);
  fair.submit(spec_of("even", "sort", 4096, 21));
  fair.submit(spec_of("odd", "sort", 4096, 22));
  const auto fr = fair.run_all();

  Table fair_table({"tenant", "span ticks", "charged bytes", "preemptions",
                    "slowdown ratio", "bound"});
  const double span0 = static_cast<double>(fr[0].end_tick - fr[0].admit_tick);
  const double span1 = static_cast<double>(fr[1].end_tick - fr[1].admit_tick);
  const double ratio = std::max(span0, span1) / std::min(span0, span1);
  char ratio_s[32];
  std::snprintf(ratio_s, sizeof ratio_s, "%.3f", ratio);
  char bound_s[32];
  std::snprintf(bound_s, sizeof bound_s, "%.2f", kFairnessBound);
  for (const auto& r : fr) {
    fair_table.row({r.name,
                    fmt_u(r.end_tick - r.admit_tick), fmt_u(r.charged_bytes),
                    fmt_u(r.preemptions), ratio_s, bound_s});
  }
  fair_table.print();
  if (!(fr[0].ok && fr[1].ok) || ratio > kFairnessBound) {
    std::fprintf(stderr,
                 "FAIL: equal-priority slowdown ratio %.3f exceeds %.2f\n",
                 ratio, kFairnessBound);
    gate_ok = false;
  }

  // ---- 3. Prefetch depth sweep ------------------------------------------
  std::printf(
      "\nPrefetch depth: the same async-I/O sort at widening read-ahead\n"
      "windows. Counted I/O may not move; only wall time may.\n\n");

  Table pf_table({"prefetch_depth", "wall s", "parallel I/Os", "blocks",
                  "output hash"});
  JobResult ref;
  for (std::uint32_t depth : {1u, 2u, 4u, 8u}) {
    auto s = spec_of("pf", "sort", 65536, 33);
    s.io_threads = 2;
    s.prefetch_depth = depth;
    const auto t0 = std::chrono::steady_clock::now();
    const JobResult r = run_job_solo(s, bench_pool());
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    char wall_s[32];
    std::snprintf(wall_s, sizeof wall_s, "%.3f", wall);
    char hash_s[32];
    std::snprintf(hash_s, sizeof hash_s, "0x%llx",
                  static_cast<unsigned long long>(r.output_hash));
    pf_table.row({fmt_u(depth), wall_s, fmt_u(r.io.total_ops()),
                  fmt_u(r.io.total_blocks()), hash_s});
    if (depth == 1) {
      ref = r;
      continue;
    }
    const std::string diffs = tenant_mismatches(r, ref);
    if (!diffs.empty()) {
      std::fprintf(stderr, "FAIL: prefetch_depth=%u changed the job: %s\n",
                   depth, diffs.c_str());
      gate_ok = false;
    }
  }
  pf_table.print();

  // ---- 4. Parallel executor worker sweep --------------------------------
  std::printf(
      "\nParallel executor: four whole-host tenants (no shared pool host,\n"
      "so the arbitration phase emits four independent work items) swept\n"
      "over worker counts. One tenant runs host threads, two run async\n"
      "I/O, one runs under a seeded absorbed chaos campaign. Outputs,\n"
      "counted I/O, wire bytes and charged bytes may not move; only wall\n"
      "time may. workers=1 and workers=4 show the median of five\n"
      "alternating runs each.\n\n");

  ServiceSpec wspec;
  wspec.service.pool = bench_pool();
  wspec.service.quantum_bytes = 1 << 18;
  for (int t = 0; t < 4; ++t) {
    auto s = spec_of("par" + std::to_string(t), "sort", 16384,
                     41 + static_cast<std::uint64_t>(t));
    s.disks = 8;  // whole-host carve: no co-residence anywhere
    if (t == 0) s.use_threads = true;
    if (t == 1 || t == 3) s.io_threads = 2;
    wspec.jobs.push_back(s);
  }
  wspec.chaos_seed = 1;  // known-absorbed draw: retries, no abort
  wspec.chaos_shape.max_events = 8;
  wspec.chaos_shape.allow_kill = false;
  wspec.chaos_shape.allow_rejoin = false;
  wspec.chaos_shape.allow_disk_crash = false;
  wspec.chaos_shape.target_tenant = 2;
  arm_service_chaos(wspec);

  Table sweep_table({"workers", "wall s", "speedup vs workers=1",
                     "bit-identical to solo"});
  std::vector<JobResult> solo_ref;
  for (const JobSpec& j : wspec.jobs) {
    solo_ref.push_back(run_job_solo(j, wspec.service.pool));
  }
  if (solo_ref[2].io.retries == 0) {
    std::fprintf(stderr, "FAIL: sweep chaos campaign never fired\n");
    gate_ok = false;
  }
  // One timed run_all per call; every tenant must stay bit-identical to
  // its solo run at every worker count.
  std::map<std::uint32_t, std::vector<double>> walls;
  std::map<std::uint32_t, bool> same;
  auto timed_run = [&](std::uint32_t workers) {
    ServiceConfig cfg = wspec.service;
    cfg.workers = workers;
    JobService sweep(cfg);
    for (const JobSpec& j : wspec.jobs) sweep.submit(j);
    const auto t0 = std::chrono::steady_clock::now();
    const auto rs = sweep.run_all();
    walls[workers].push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    same.emplace(workers, true);
    for (std::size_t i = 0; i < rs.size(); ++i) {
      if (!rs[i].ok || !tenant_mismatches(rs[i], solo_ref[i]).empty()) {
        same[workers] = false;
      }
    }
  };
  // The gate compares workers=4 with workers=1 on the medians of
  // kGateReps alternating runs of each: one ~0.02 s run is at the mercy of
  // whatever else the machine does during it.
  constexpr int kGateReps = 5;
  for (int rep = 0; rep < kGateReps; ++rep) {
    timed_run(rep % 2 == 0 ? 1 : 4);
    timed_run(rep % 2 == 0 ? 4 : 1);
  }
  timed_run(2);
  timed_run(8);
  auto median_wall = [&](std::uint32_t workers) {
    auto w = walls[workers];
    std::sort(w.begin(), w.end());
    return w[w.size() / 2];
  };
  const double wall_one = median_wall(1);
  const double wall_four = median_wall(4);
  for (std::uint32_t workers : {1u, 2u, 4u, 8u}) {
    if (!same[workers]) {
      std::fprintf(stderr,
                   "FAIL: workers=%u changed a tenant observable — a tenant"
                   " diverged from its solo run\n",
                   workers);
      gate_ok = false;
    }
    const double wall = median_wall(workers);
    char wall_s[32];
    std::snprintf(wall_s, sizeof wall_s, "%.3f", wall);
    char speed_s[32];
    std::snprintf(speed_s, sizeof speed_s, "%.2fx", wall_one / wall);
    sweep_table.row(
        {fmt_u(workers), wall_s, speed_s, same[workers] ? "yes" : "NO"});
  }
  sweep_table.print();

  const unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 4) {
    const double speedup = wall_one / wall_four;
    std::printf("\nworkers=4 speedup on this %u-core machine: %.2fx\n", hw,
                speedup);
    if (!(speedup > 1.0)) {
      std::fprintf(stderr,
                   "FAIL: four non-co-resident tenants on a >=4-core"
                   " machine must beat one worker (got %.2fx)\n",
                   speedup);
      gate_ok = false;
    }
  } else {
    std::printf(
        "\nworkers=4 speedup gate skipped: hardware_concurrency=%u < 4\n",
        hw);
  }

  std::printf(
      "\nExpected shape: every tenant row says 'identical to solo' — the\n"
      "scheduler time-multiplexes barriers, it never touches tenant state.\n"
      "The worker sweep may only move wall time. The bench exits nonzero\n"
      "when isolation, the fairness bound, the prefetch invariance, or the\n"
      "worker-count invariance fails.\n");

  write_json_report(json_path,
                    {{"multi_tenant_service_vs_solo", svc_table},
                     {"fair_share_equal_priority", fair_table},
                     {"prefetch_depth_sweep", pf_table},
                     {"parallel_worker_sweep", sweep_table}});
  return gate_ok ? 0 : 2;
}
