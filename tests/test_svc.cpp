// Multi-tenant job service (src/svc): pool carve-out accounting, admission
// and submit-time rejection, strict-priority preemption at superstep
// barriers, deficit-round-robin fair share, and the per-tenant isolation
// contract — a job's outputs, IoStats and NetStats are bit-identical
// between a solo run and a contended service run, including when a seeded
// chaos campaign is armed on one co-resident tenant.
//
// The suite names matter: CI's TSan job selects tests by regex, and
// `Svc|Tenant|Preempt` pulls these in so the charge hooks (which fire from
// async I/O submitters) also run under the race detector.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chaos/plan.h"
#include "svc/job.h"
#include "svc/pool.h"
#include "svc/service.h"
#include "svc/svc_json.h"
#include "svc/workload.h"
#include "util/error.h"

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

}  // namespace

// -------------------------------------------------------------- the pool --

TEST(SvcPool, FirstFitGrantsLowestHosts) {
  MachinePool pool(small_pool());
  const auto a = pool.try_acquire(2, 8);
  EXPECT_EQ(a, (std::vector<std::uint32_t>{0, 1}));
  const auto b = pool.try_acquire(2, 8);
  EXPECT_EQ(b, (std::vector<std::uint32_t>{2, 3}));
  // Saturated: a feasible request waits (empty grant), it is not an error.
  EXPECT_TRUE(pool.try_acquire(1, 1).empty());
  pool.release(a, 8);
  EXPECT_EQ(pool.try_acquire(1, 8), (std::vector<std::uint32_t>{0}));
}

TEST(SvcPool, CoResidentJobsSplitOneHostsDisks) {
  MachinePool pool(small_pool());
  const auto a = pool.try_acquire(1, 5);
  EXPECT_EQ(a, (std::vector<std::uint32_t>{0}));
  // 3 disks left on host 0: a 4-disk job skips to host 1, a 3-disk job
  // co-resides.
  EXPECT_EQ(pool.try_acquire(1, 4), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(pool.try_acquire(1, 3), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(pool.free_disks(0), 0u);
}

TEST(SvcPool, NeverSatisfiableRequestsRejectedTyped) {
  MachinePool pool(small_pool());
  for (auto [hosts, disks] : {std::pair<std::uint32_t, std::uint32_t>{5, 1},
                              {1, 9},
                              {0, 4},
                              {1, 0}}) {
    try {
      pool.check_feasible("greedy", hosts, disks);
      FAIL() << "hosts=" << hosts << " disks=" << disks;
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kConfig);
      EXPECT_NE(std::string(e.what()).find("greedy"), std::string::npos);
    }
  }
  // The whole pool at once is feasible.
  EXPECT_NO_THROW(pool.check_feasible("big", 4, 8));
}

// -------------------------------------------------------------- workloads --

TEST(SvcWorkload, UnknownKindRejectedTyped) {
  try {
    make_workload("quicksort", 100, 1);
    FAIL();
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kConfig);
  }
}

TEST(SvcWorkload, EveryKindRunsSoloAndChecksItsOutput) {
  for (const char* kind : {"sort", "list_rank", "maxima"}) {
    auto s = spec_of(std::string("solo_") + kind, kind, 1024, 3);
    const JobResult r = run_job_solo(s, small_pool());
    EXPECT_TRUE(r.ok) << kind << ": " << r.error;
    EXPECT_NE(r.output_hash, 0u) << kind;
    EXPECT_GT(r.supersteps, 0u) << kind;
    EXPECT_GT(r.charged_bytes, 0u) << kind;
  }
}

// ------------------------------------------------------------- admission --

TEST(SvcService, SubmitRejectsBadJobsBeforeTheTickLoop) {
  ServiceConfig sc;
  sc.pool = small_pool();
  JobService svc(sc);
  svc.submit(spec_of("a", "sort", 512, 1));
  EXPECT_THROW(svc.submit(spec_of("a", "sort", 512, 2)), IoError);  // dup
  EXPECT_THROW(svc.submit(spec_of("", "sort", 512, 2)), IoError);
  EXPECT_THROW(svc.submit(spec_of("b", "bogus", 512, 2)), IoError);
  auto greedy = spec_of("c", "sort", 512, 2);
  greedy.hosts = 9;  // never satisfiable by a 4-host pool
  EXPECT_THROW(svc.submit(greedy), IoError);
}

TEST(SvcService, QuantumZeroRejected) {
  ServiceConfig sc;
  sc.pool = small_pool();
  sc.quantum_bytes = 0;
  EXPECT_THROW(JobService svc(sc), IoError);
}

TEST(SvcService, WaitingJobAdmittedWhenCapacityFrees) {
  // Two 3-host jobs on a 4-host pool: the second must wait for the first
  // to finish, then run — no deadlock, no rejection.
  ServiceConfig sc;
  sc.pool = small_pool();
  JobService svc(sc);
  auto a = spec_of("first", "sort", 1024, 1);
  a.hosts = 3;
  a.v = 6;      // p must divide v
  a.disks = 8;  // whole hosts, so the two carves cannot co-reside
  auto b = spec_of("second", "sort", 1024, 2);
  b.hosts = 3;
  b.v = 6;
  b.disks = 8;
  svc.submit(a);
  svc.submit(b);
  const auto rs = svc.run_all();
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_TRUE(rs[0].ok) << rs[0].error;
  EXPECT_TRUE(rs[1].ok) << rs[1].error;
  // Strictly serialized by capacity.
  EXPECT_GT(rs[1].admit_tick, rs[0].end_tick - 1);
}

TEST(SvcService, RunIsDeterministic) {
  auto run_once = [] {
    ServiceConfig sc;
    sc.pool = small_pool();
    sc.quantum_bytes = 1 << 18;
    JobService svc(sc);
    svc.submit(spec_of("s", "sort", 2048, 7));
    svc.submit(spec_of("r", "list_rank", 1024, 9));
    svc.submit(spec_of("m", "maxima", 1024, 11));
    auto rs = svc.run_all();
    return std::make_pair(std::move(rs), svc.ticks());
  };
  const auto [a, ta] = run_once();
  const auto [b, tb] = run_once();
  EXPECT_EQ(ta, tb);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].output_hash, b[i].output_hash) << a[i].name;
    EXPECT_EQ(a[i].admit_tick, b[i].admit_tick) << a[i].name;
    EXPECT_EQ(a[i].end_tick, b[i].end_tick) << a[i].name;
    EXPECT_EQ(a[i].preemptions, b[i].preemptions) << a[i].name;
    EXPECT_EQ(a[i].charged_bytes, b[i].charged_bytes) << a[i].name;
  }
}

// ----------------------------------------------------- tenant isolation --

TEST(TenantIsolation, ConcurrentJobsBitIdenticalToSoloRuns) {
  // Mixed workloads, one of them multi-host (its own simulated network),
  // all contending for the scheduler: every per-tenant observable must
  // match the same job run alone on an empty pool.
  std::vector<JobSpec> specs;
  auto s0 = spec_of("sortA", "sort", 4096, 7);
  s0.hosts = 2;
  specs.push_back(s0);
  specs.push_back(spec_of("rankB", "list_rank", 2048, 11));
  specs.push_back(spec_of("maxC", "maxima", 2048, 13));

  ServiceConfig sc;
  sc.pool = small_pool();
  sc.quantum_bytes = 1 << 18;
  JobService svc(sc);
  for (const auto& s : specs) svc.submit(s);
  const auto rs = svc.run_all();
  ASSERT_EQ(rs.size(), specs.size());

  bool contended = false;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(rs[i].ok) << rs[i].name << ": " << rs[i].error;
    EXPECT_EQ(tenant_mismatches(rs[i], run_job_solo(specs[i], sc.pool)), "")
        << rs[i].name;
    contended = contended || rs[i].preemptions > 0;
  }
  EXPECT_TRUE(contended) << "the service run never actually interleaved";
}

TEST(TenantIsolation, ThreadedTenantsStayIsolated) {
  // Host threads + async I/O inside each tenant: the charge hooks fire from
  // worker threads while another tenant may be idle-but-alive. (TSan runs
  // this too.)
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

  ServiceConfig sc;
  sc.pool = small_pool();
  JobService svc(sc);
  for (const auto& s : specs) svc.submit(s);
  const auto rs = svc.run_all();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(rs[i].ok) << rs[i].error;
    EXPECT_EQ(tenant_mismatches(rs[i], run_job_solo(specs[i], sc.pool)), "")
        << rs[i].name;
  }
}

TEST(TenantChaos, TargetedFaultLeavesCoResidentTenantUntouched) {
  // Satellite contract: a seeded ChaosPlan armed on one tenant of a
  // two-job run must leave the other tenant bit-identical to its solo run
  // on a clean machine — isolation is structural, not statistical.
  ServiceSpec spec;
  spec.service.pool = small_pool();
  spec.jobs.push_back(spec_of("victim", "sort", 2048, 7));
  spec.jobs.push_back(spec_of("bystander", "list_rank", 1024, 9));
  spec.chaos_seed = 1;  // this seed's draw is absorbed: retries, no abort
  spec.chaos_shape.p = 1;  // the victim's machine, not the pool
  spec.chaos_shape.max_events = 8;
  spec.chaos_shape.allow_kill = false;
  spec.chaos_shape.allow_rejoin = false;
  spec.chaos_shape.allow_disk_crash = false;
  spec.chaos_shape.target_tenant = 0;
  arm_service_chaos(spec);
  ASSERT_FALSE(spec.jobs[0].chaos_json.empty());
  ASSERT_TRUE(spec.jobs[1].chaos_json.empty());

  JobService svc(spec.service);
  for (const auto& s : spec.jobs) svc.submit(s);
  const auto rs = svc.run_all();

  // The bystander matches a clean solo run exactly...
  const PoolConfig& pool = spec.service.pool;
  EXPECT_EQ(tenant_mismatches(rs[1], run_job_solo(spec.jobs[1], pool)), "");
  // ...and the victim matches a solo run *with the same plan armed* —
  // faults included, the tenant is deterministic.
  EXPECT_EQ(tenant_mismatches(rs[0], run_job_solo(spec.jobs[0], pool)), "");
  // The plan actually fired (transient faults => retries).
  EXPECT_GT(rs[0].io.retries, 0u);
  EXPECT_EQ(rs[1].io.retries, 0u);
}

// ------------------------------------------------------------ preemption --

TEST(PreemptPriority, HighPriorityArrivalPreemptsAtNextBarrier) {
  ServiceConfig sc;
  sc.pool = small_pool();
  JobService svc(sc);
  auto lo = spec_of("background", "list_rank", 2048, 3);
  lo.priority = 0;
  auto hi = spec_of("latency", "sort", 1024, 5);
  hi.priority = 3;
  hi.arrival_tick = 4;  // arrives mid-run of the background job
  svc.submit(lo);
  svc.submit(hi);
  const auto rs = svc.run_all();
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_TRUE(rs[0].ok) << rs[0].error;
  EXPECT_TRUE(rs[1].ok) << rs[1].error;
  // The high-priority job ran to completion while the background job sat
  // parked at a barrier: it finished first despite arriving later, and the
  // background job was preempted at least once.
  EXPECT_LT(rs[1].end_tick, rs[0].end_tick);
  EXPECT_GT(rs[0].preemptions, 0u);
  EXPECT_EQ(rs[1].preemptions, 0u);
  // Preemption is invisible to the preempted tenant's results.
  EXPECT_EQ(tenant_mismatches(rs[0], run_job_solo(lo, sc.pool)), "")
      << rs[0].name;
}

TEST(PreemptFairShare, EqualPriorityTenantsInterleaveUnderDrr) {
  // Two identical jobs at one priority: DRR must interleave them (both see
  // preemptions) and their finish times may not be serial — the second
  // job's end tick is far earlier than 2x the first's span.
  ServiceConfig sc;
  sc.pool = small_pool();
  sc.quantum_bytes = 1 << 17;  // a few supersteps per burst
  JobService svc(sc);
  svc.submit(spec_of("even", "sort", 4096, 21));
  svc.submit(spec_of("odd", "sort", 4096, 22));
  const auto rs = svc.run_all();
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_TRUE(rs[0].ok && rs[1].ok);
  EXPECT_GT(rs[0].preemptions, 0u);
  EXPECT_GT(rs[1].preemptions, 0u);
  // Equal work, equal shares: neither tenant finishes twice as late as the
  // other (serial execution would put rs[1].end at ~2x rs[0].end).
  const auto hi = std::max(rs[0].end_tick, rs[1].end_tick);
  const auto lo = std::min(rs[0].end_tick, rs[1].end_tick);
  EXPECT_LT(hi - lo, lo / 2 + 2) << "end ticks " << lo << " vs " << hi;
}

// ------------------------------------------------------------------ json --

TEST(SvcJson, ParsesTheFullJobFileSchema) {
  const std::string doc = R"({
    "pool": {"hosts": 3, "disks_per_host": 6, "block_bytes": 512},
    "quantum_bytes": 65536,
    "trace": true,
    "jobs": [
      {"name": "a", "workload": "sort", "n": 100, "seed": 4, "v": 4,
       "hosts": 2, "disks": 3, "priority": 2, "arrival_tick": 9,
       "use_threads": true, "io_threads": 2, "prefetch_depth": 4},
      {"name": "b", "workload": "maxima",
       "chaos": {"seed": 3, "events": []}}
    ],
    "chaos": {"seed": 5, "target_tenant": 0, "max_events": 2,
              "allow_kill": false, "allow_rejoin": false}
  })";
  const ServiceSpec s = parse_service_json(doc);
  EXPECT_EQ(s.service.pool.hosts, 3u);
  EXPECT_EQ(s.service.pool.disks_per_host, 6u);
  EXPECT_EQ(s.service.pool.block_bytes, 512u);
  EXPECT_EQ(s.service.quantum_bytes, 65536u);
  EXPECT_TRUE(s.service.trace);
  ASSERT_EQ(s.jobs.size(), 2u);
  EXPECT_EQ(s.jobs[0].name, "a");
  EXPECT_EQ(s.jobs[0].hosts, 2u);
  EXPECT_EQ(s.jobs[0].priority, 2u);
  EXPECT_EQ(s.jobs[0].arrival_tick, 9u);
  EXPECT_TRUE(s.jobs[0].use_threads);
  EXPECT_EQ(s.jobs[0].prefetch_depth, 4u);
  EXPECT_EQ(s.jobs[1].workload, "maxima");
  // The per-job chaos object is captured verbatim and parses as a plan.
  EXPECT_NO_THROW(chaos::ChaosPlan::parse_json(s.jobs[1].chaos_json));
  EXPECT_EQ(s.chaos_seed, 5u);
  EXPECT_EQ(s.chaos_shape.target_tenant, 0);
  EXPECT_FALSE(s.chaos_shape.allow_kill);
}

TEST(SvcJson, RejectsMalformedJobFiles) {
  for (const char* bad : {
           "",
           "{",
           "{\"jobs\": []}",                       // no jobs
           "{\"jobs\": [{\"name\": \"a\"}], \"x\": 1}",  // unknown key
           "{\"jobs\": [{\"nope\": 1}]}",          // unknown job field
           "{\"pool\": {\"spindles\": 2}, \"jobs\": [{\"name\": \"a\"}]}",
           // Numbers are read exactly or rejected, never cast into range.
           "{\"jobs\": [{\"name\": \"a\", \"disks\": -1}]}",
           "{\"jobs\": [{\"name\": \"a\", \"n\": 1e30}]}",
           "{\"jobs\": [{\"name\": \"a\", \"v\": 4.9}]}",
           "{\"jobs\": [{\"name\": \"a\", \"hosts\": 4294967298}]}",
           "{\"jobs\": [{\"name\": \"a\", \"n\": 8, \"n\": 9}]}",
           "{\"jobs\": [{\"name\": \"a\tb\"}]}",  // raw control character
           "{\"jobs\": [{\"name\": \"a\"}]}}",  // trailing bytes
       }) {
    EXPECT_THROW(parse_service_json(bad), IoError) << bad;
  }
}

TEST(SvcJson, ArmChaosValidatesItsTarget) {
  ServiceSpec s;
  s.jobs.push_back(spec_of("only", "sort", 100, 1));
  s.chaos_seed = 9;
  s.chaos_shape.target_tenant = 1;  // out of range
  EXPECT_THROW(arm_service_chaos(s), IoError);
  s.chaos_shape.target_tenant = 0;
  s.jobs[0].chaos_json = "{\"seed\": 1, \"events\": []}";
  EXPECT_THROW(arm_service_chaos(s), IoError);  // plan conflict
  s.jobs[0].chaos_json.clear();
  arm_service_chaos(s);
  EXPECT_FALSE(s.jobs[0].chaos_json.empty());
  // chaos_seed == 0 is "no campaign", never an error.
  ServiceSpec none;
  none.jobs.push_back(spec_of("a", "sort", 100, 1));
  EXPECT_NO_THROW(arm_service_chaos(none));
}

TEST(SvcJson, ResultsDocumentCarriesPerTenantStats) {
  auto r = run_job_solo(spec_of("only", "sort", 512, 2), small_pool());
  const std::string doc = results_json({r}, 42);
  for (const char* key :
       {"\"ticks\":42", "\"name\":\"only\"", "\"ok\":true", "\"output_hash\"",
        "\"supersteps\"", "\"preemptions\"", "\"charged_bytes\"",
        "\"blocks_read\"", "\"wire_bytes\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << key << " in " << doc;
  }
}

// ---------------------------------------------------------- tenant check --

TEST(TenantCheck, NamesEachPlantedDifferenceAndNeverTheSchedule) {
  JobResult base;
  base.name = "t";
  base.ok = true;
  const std::pair<void (*)(JobResult&), const char*> cases[] = {
      {[](JobResult& r) { r.charged_bytes = 4096; },
       "charged_bytes 0 != 4096"},
      {[](JobResult& r) { r.output_hash = 17; }, "output_hash 0 != 17"},
      {[](JobResult& r) {
         r.ok = false;
         r.error = "boom";
       },
       "ok 1 != 0; error"},
      {[](JobResult& r) { r.supersteps = 3; }, "supersteps 0 != 3"},
      {[](JobResult& r) { r.io.retries = 2; }, "io"},
      // Every NetStats counter counts, not only the wire and delivery ones.
      {[](JobResult& r) { r.net.heartbeats_sent = 3; }, "net"},
      {[](JobResult& r) { r.app_rounds = 5; }, "app_rounds 0 != 5"},
      {[](JobResult& r) { r.failovers = 1; }, "failovers 0 != 1"},
      {[](JobResult& r) { r.rejoins = 1; }, "rejoins 0 != 1"},
      {[](JobResult& r) {
         r.name = "other";
         r.preemptions = 4;
         r.admit_tick = 2;
         r.end_tick = 9;
       },
       ""},
  };
  for (const auto& [plant, want] : cases) {
    JobResult r = base;
    plant(r);
    EXPECT_EQ(tenant_mismatches(base, r), want);
  }
}
