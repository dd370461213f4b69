// Parallel job-service executor (src/svc): the fork-join WorkerPool
// (util/worker_pool.h, shared with the engine's host workers), the
// two-phase tick loop's worker-count invariance (every per-tenant
// observable bit-identical to the tenant's solo run for workers 1/2/4/8),
// seeded schedule perturbation converging to the solo reference, chaos
// targeting under a parallel run, the spread placement policy, and the new
// JSON knobs.
//
// Suite names matter: CI's TSan job selects tests by regex, and
// `WorkerPool|Parallel|Placement` pulls these in so concurrently stepped
// engines and the pool's handoff edges run under the race detector.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "svc/job.h"
#include "svc/pool.h"
#include "svc/service.h"
#include "svc/svc_json.h"
#include "util/error.h"
#include "util/file.h"
#include "util/worker_pool.h"

using namespace emcgm;
using namespace emcgm::svc;

namespace {

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

PoolConfig small_pool() {
  PoolConfig p;
  p.hosts = 4;
  p.disks_per_host = 8;
  p.block_bytes = 4096;
  return p;
}

/// The three-tenant mix the isolation tests use: a multi-host sort plus two
/// single-host jobs, all mutually co-resident on the 4x8 pool.
std::vector<JobSpec> mixed_specs() {
  std::vector<JobSpec> specs;
  auto s0 = spec_of("sortA", "sort", 4096, 7);
  s0.hosts = 2;
  specs.push_back(s0);
  specs.push_back(spec_of("rankB", "list_rank", 2048, 11));
  specs.push_back(spec_of("maxC", "maxima", 2048, 13));
  return specs;
}

std::vector<JobResult> run_with_workers(
    const std::vector<JobSpec>& specs, std::uint32_t workers,
    std::function<void(std::size_t, std::uint64_t)> step_delay = nullptr,
    std::uint64_t* ticks = nullptr) {
  ServiceConfig sc;
  sc.pool = small_pool();
  sc.quantum_bytes = 1 << 18;
  sc.workers = workers;
  sc.step_delay = std::move(step_delay);
  JobService svc(sc);
  for (const auto& s : specs) svc.submit(s);
  auto rs = svc.run_all();
  if (ticks) *ticks = svc.ticks();
  return rs;
}

/// Each tenant alone on an empty pool — the isolation contract's reference.
std::vector<JobResult> solo_runs(const std::vector<JobSpec>& specs) {
  std::vector<JobResult> rs;
  for (const JobSpec& s : specs) rs.push_back(run_job_solo(s, small_pool()));
  return rs;
}

/// Deterministic per-(slot, tick) jitter for the perturbation stress: a
/// pure function, so the hook needs no shared state across workers.
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ull + b * 0xBF58476D1CE4E5B9ull +
                    c * 0x94D049BB133111EBull;
  x ^= x >> 31;
  x *= 0xD6E8FEB86659FD93ull;
  x ^= x >> 27;
  return x;
}

}  // namespace

// ------------------------------------------------------- the worker pool --

TEST(WorkerPool, RunsEveryTaskExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  std::vector<std::atomic<int>> hits(64);
  pool.run(hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(WorkerPool, OneWorkerRunsTasksInlineInIndexOrder) {
  // No thread exists: every task runs on the caller, in index order — the
  // serial case of the engine's host loop and of the job service's tick.
  WorkerPool pool(1);
  EXPECT_EQ(pool.workers(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool on_caller = true;
  pool.run(16, [&](std::size_t i) {
    order.push_back(i);
    on_caller = on_caller && std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(on_caller);
  std::vector<std::size_t> want(16);
  for (std::size_t i = 0; i < want.size(); ++i) want[i] = i;
  EXPECT_EQ(order, want);
}

TEST(WorkerPool, LongTaskDoesNotHoldUpTheRest) {
  // Two workers, one long task first: the short tasks after it must
  // complete anyway on the other worker — run() returning with every
  // counter set proves it, and the wall time stays bounded by the long
  // task, not the sum.
  WorkerPool pool(2);
  std::atomic<int> done{0};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    done.fetch_add(1);
  });
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([&] { done.fetch_add(1); });
  }
  const auto t0 = std::chrono::steady_clock::now();
  pool.run(tasks.size(), [&tasks](std::size_t i) { tasks[i](); });
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(done.load(), 17);
  // Generous bound: the 16 short tasks must not have serialized behind the
  // 50ms task 16 times over.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            800);
}

TEST(WorkerPool, RethrowsLowestIndexTaskException) {
  WorkerPool pool(3);
  try {
    pool.run(10, [](std::size_t i) {
      if (i == 3 || i == 7) {
        throw std::runtime_error("task " + std::to_string(i) + " failed");
      }
    });
    FAIL() << "batch exception not propagated";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3 failed");
  }
}

TEST(WorkerPool, ReusableAcrossBatchesAndZeroWorkersRejected) {
  EXPECT_THROW(WorkerPool bad(0), IoError);
  WorkerPool pool(2);
  std::atomic<int> sum{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.run(8, [&](std::size_t) { sum.fetch_add(1); });
    EXPECT_EQ(sum.load(), (batch + 1) * 8);
  }
  pool.run(0, [&](std::size_t) { sum.fetch_add(1); });  // empty: a no-op
  EXPECT_EQ(sum.load(), 40);
}

// ------------------------------------- worker-count invariance (tentpole) --

TEST(SvcParallel, ObservablesBitIdenticalAcrossWorkerCounts) {
  const auto specs = mixed_specs();
  const auto reference = solo_runs(specs);
  ASSERT_EQ(reference.size(), specs.size());
  for (const auto& r : reference) EXPECT_TRUE(r.ok) << r.name << r.error;

  for (std::uint32_t workers : {1u, 2u, 4u, 8u}) {
    const auto rs = run_with_workers(specs, workers);
    ASSERT_EQ(rs.size(), reference.size()) << "workers=" << workers;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      EXPECT_EQ(tenant_mismatches(rs[i], reference[i]), "") << rs[i].name;
    }
  }
}

TEST(SvcParallel, ScheduleIsWorkerCountInvariant) {
  // Stronger than observable equality: for any N >= 1 the arbitration
  // phase must produce the *same schedule* — ticks, admit/end ticks and
  // preemption counts all equal — because it never sees N.
  const auto specs = mixed_specs();
  std::uint64_t ticks1 = 0;
  const auto r1 = run_with_workers(specs, 1, nullptr, &ticks1);
  for (std::uint32_t workers : {2u, 4u, 8u}) {
    std::uint64_t ticksN = 0;
    const auto rN = run_with_workers(specs, workers, nullptr, &ticksN);
    EXPECT_EQ(ticksN, ticks1) << "workers=" << workers;
    for (std::size_t i = 0; i < rN.size(); ++i) {
      EXPECT_EQ(rN[i].admit_tick, r1[i].admit_tick) << rN[i].name;
      EXPECT_EQ(rN[i].end_tick, r1[i].end_tick) << rN[i].name;
      EXPECT_EQ(rN[i].preemptions, r1[i].preemptions) << rN[i].name;
    }
  }
}

TEST(SvcParallel, WorkersAutoResolvesToAtLeastOne) {
  ServiceConfig sc;
  sc.pool = small_pool();
  EXPECT_EQ(sc.workers, ServiceConfig::kWorkersAuto);
  JobService svc(sc);
  EXPECT_GE(svc.workers(), 1u);
  ServiceConfig none = sc;
  none.workers = 0;
  try {
    JobService bad(none);
    FAIL() << "workers == 0 accepted";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kConfig);
  }
}

TEST(SvcParallel, ThreadedTenantsUnderFourWorkers) {
  // Tenants that spawn their own host threads and async I/O executors,
  // stepped from pool workers: threads x async I/O x parallel tick loop.
  std::vector<JobSpec> specs;
  auto s0 = spec_of("tA", "sort", 2048, 3);
  s0.hosts = 2;
  s0.use_threads = true;
  s0.io_threads = 2;
  specs.push_back(s0);
  auto s1 = spec_of("tB", "list_rank", 1024, 5);
  s1.io_threads = 2;
  s1.prefetch_depth = 4;
  specs.push_back(s1);

  const auto reference = solo_runs(specs);
  const auto rs = run_with_workers(specs, 4);
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_TRUE(rs[i].ok) << rs[i].error;
    EXPECT_EQ(tenant_mismatches(rs[i], reference[i]), "") << rs[i].name;
  }
}

// ------------------------------------------- schedule perturbation stress --

TEST(ParallelStress, PerturbedWorkerTimingConvergesToSerialReference) {
  // Seeded sleeps at step boundaries reshuffle which worker runs what and
  // when — if worker timing could leak into any observable, this amplifies
  // the leak. Three perturbation seeds, all bit-identical to each tenant's
  // solo run, where no co-tenant competes for a burst or a worker.
  const auto specs = mixed_specs();
  const auto reference = solo_runs(specs);
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    auto delay = [seed](std::size_t slot, std::uint64_t tick) {
      const std::uint64_t us = mix(seed, slot, tick) % 150;
      if (us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(us));
      }
    };
    const auto rs = run_with_workers(specs, 4, delay);
    for (std::size_t i = 0; i < rs.size(); ++i) {
      SCOPED_TRACE("perturbation seed " + std::to_string(seed));
      EXPECT_EQ(tenant_mismatches(rs[i], reference[i]), "") << rs[i].name;
    }
  }
}

// ------------------------------------------------- chaos under a parallel --

TEST(ParallelChaos, TargetedVictimUnderFourWorkersMatchesSolo) {
  // A seeded chaos campaign on one tenant of a parallel run: the victim
  // must match a solo run with the same plan armed, the bystander a clean
  // solo run — fault injection composes with the worker pool.
  ServiceSpec spec;
  spec.service.pool = small_pool();
  spec.service.workers = 4;
  spec.jobs.push_back(spec_of("victim", "sort", 2048, 7));
  spec.jobs.push_back(spec_of("bystander", "list_rank", 1024, 9));
  spec.chaos_seed = 1;  // this seed's draw is absorbed: retries, no abort
  spec.chaos_shape.p = 1;
  spec.chaos_shape.max_events = 8;
  spec.chaos_shape.allow_kill = false;
  spec.chaos_shape.allow_rejoin = false;
  spec.chaos_shape.allow_disk_crash = false;
  spec.chaos_shape.target_tenant = 0;
  arm_service_chaos(spec);

  JobService svc(spec.service);
  for (const auto& s : spec.jobs) svc.submit(s);
  const auto rs = svc.run_all();

  const JobResult victim_solo =
      run_job_solo(spec.jobs[0], spec.service.pool);
  const JobResult bystander_solo =
      run_job_solo(spec.jobs[1], spec.service.pool);
  EXPECT_EQ(tenant_mismatches(rs[0], victim_solo), "") << rs[0].name;
  EXPECT_EQ(tenant_mismatches(rs[1], bystander_solo), "") << rs[1].name;
  EXPECT_GT(rs[0].io.retries, 0u);   // the plan actually fired
  EXPECT_EQ(rs[1].io.retries, 0u);  // and never crossed the tenant wall
}

// ------------------------------------------------------ placement policy --

TEST(SvcPlacement, SpreadPrefersEmptyHostsPackPacks) {
  PoolConfig cfg = small_pool();
  cfg.placement = PlacementPolicy::kSpread;
  MachinePool spread(cfg);
  EXPECT_EQ(spread.try_acquire(1, 4), (std::vector<std::uint32_t>{0}));
  // Host 0 has 4 free disks left, but host 1 is empty: spread goes there.
  EXPECT_EQ(spread.try_acquire(1, 4), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(spread.try_acquire(1, 4), (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(spread.try_acquire(1, 4), (std::vector<std::uint32_t>{3}));
  // No empty host remains: falls back to first fit (co-residence).
  EXPECT_EQ(spread.try_acquire(1, 4), (std::vector<std::uint32_t>{0}));

  MachinePool pack(small_pool());  // default kPack
  EXPECT_EQ(pack.try_acquire(1, 4), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(pack.try_acquire(1, 4), (std::vector<std::uint32_t>{0}));
}

TEST(SvcPlacement, SpreadMultiHostCarveMixesEmptyAndPartial) {
  PoolConfig cfg = small_pool();
  cfg.placement = PlacementPolicy::kSpread;
  MachinePool pool(cfg);
  EXPECT_EQ(pool.try_acquire(1, 2), (std::vector<std::uint32_t>{0}));
  // 3 hosts empty, host 0 partially used: a 4-host ask must take all of
  // them, granted in ascending order whatever the preference pass found.
  EXPECT_EQ(pool.try_acquire(4, 2), (std::vector<std::uint32_t>{0, 1, 2, 3}));
  pool.release({0, 1, 2, 3}, 2);
  pool.release({0}, 2);
  EXPECT_EQ(pool.free_disks(0), 8u);
}

TEST(SvcPlacement, SpreadServiceRunStaysBitIdentical) {
  // Placement moves carves around; it must not move results. Same tenant
  // mix under pack and spread, both against the solo reference.
  const auto specs = mixed_specs();
  ServiceConfig sc;
  sc.pool = small_pool();
  sc.pool.placement = PlacementPolicy::kSpread;
  sc.quantum_bytes = 1 << 18;
  JobService svc(sc);
  for (const auto& s : specs) svc.submit(s);
  const auto rs = svc.run_all();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(rs[i].ok) << rs[i].error;
    EXPECT_EQ(tenant_mismatches(rs[i], run_job_solo(specs[i], sc.pool)), "")
        << rs[i].name;
  }
}

// ------------------------------------------------------------------ json --

TEST(SvcJsonParallel, ParsesWorkersAndPlacement) {
  const std::string doc = R"({
    "pool": {"hosts": 4, "disks_per_host": 8, "placement": "spread"},
    "workers": 3,
    "jobs": [{"name": "a", "workload": "sort"}]
  })";
  const ServiceSpec s = parse_service_json(doc);
  EXPECT_EQ(s.service.workers, 3u);
  EXPECT_EQ(s.service.pool.placement, PlacementPolicy::kSpread);
  // Absent keys keep the defaults.
  const ServiceSpec d =
      parse_service_json(R"({"jobs": [{"name": "a"}]})");
  EXPECT_EQ(d.service.workers, ServiceConfig::kWorkersAuto);
  EXPECT_EQ(d.service.pool.placement, PlacementPolicy::kPack);
}

TEST(SvcJsonParallel, RejectsUnknownPlacementTyped) {
  const std::string doc = R"({
    "pool": {"placement": "round_robin"},
    "jobs": [{"name": "a"}]
  })";
  try {
    parse_service_json(doc);
    FAIL();
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kConfig);
    EXPECT_NE(std::string(e.what()).find("round_robin"), std::string::npos);
  }
}

// ----------------------------------------------------------------- trace --

TEST(SvcParallel, CombinedTraceExportsEveryTenantInCanonicalOrder) {
  std::vector<JobSpec> specs;
  specs.push_back(spec_of("alpha", "sort", 1024, 3));
  specs.push_back(spec_of("beta", "maxima", 1024, 5));
  ServiceConfig sc;
  sc.pool = small_pool();
  sc.trace = true;
  sc.workers = 2;
  JobService svc(sc);
  for (const auto& s : specs) svc.submit(s);
  const auto rs = svc.run_all();
  for (const auto& r : rs) ASSERT_TRUE(r.ok) << r.error;

  const std::string path = "svc_parallel_trace_test.json";
  svc.write_trace(path);
  const std::string doc = read_file(path);
  std::remove(path.c_str());

  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  // Both tenants present, attributable, in submission order.
  const auto a = doc.find("alpha: engine");
  const auto b = doc.find("beta: engine");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(a, b);
}
