// Multi-tenant job service: many concurrent EM-CGM jobs time-multiplexed
// over one shared simulated machine pool.
//
// Scheduling model — every decision is a pure function of the job specs, so
// a service run is as deterministic as a single engine run:
//
//   * Admission: a submitted job waits until its arrival tick passes, then
//     until the pool can grant its carve-out (placement policy, in
//     submission order). Requests an empty pool could never satisfy are
//     rejected at submit() with a typed IoError(kConfig).
//   * Priorities are strict: the scheduler only ever steps jobs of the
//     highest priority class that has admitted, unfinished jobs. A higher
//     priority arrival preempts the running jobs *at their next superstep
//     barrier* — the engine's cooperative step() returns at barriers, and
//     preemption is simply not being stepped again. Nothing is saved or
//     restored, which is why preemption cannot perturb a job's results.
//   * Within a class, deficit round-robin arbitrates the shared disk and
//     network capacity: each job's account is charged the *counted* cost of
//     its supersteps (blocks x block size + wire bytes — never wall time),
//     and accounts refill by one quantum whenever the class runs dry. Long-
//     run shares of equal-priority tenants are equal in counted bytes
//     whatever their superstep granularity.
//
// Execution is a two-phase loop (DESIGN.md §17). Each tick, a single-
// threaded **arbitration phase** runs admission, priorities and DRR exactly
// as above and emits the set of chosen tenants — a pure function of the
// specs, independent of `workers`. A **parallel execution phase** then steps
// every chosen tenant to its next superstep barrier on a fork-join worker
// pool whose caller is one of its `workers`: tenants whose carve-outs share
// a pool host are grouped into one work item and stepped sequentially
// inside it (structural serialization — no lock ever guards an engine),
// while non-co-resident tenants run concurrently. The join drains charges, retires finished jobs
// and accounts preemptions in canonical (submission) slot order.
//
// Per-tenant isolation is structural: each job owns its engine, disks,
// stores, network and tracer; tenants share capacity, never state. A job's
// outputs, IoStats and NetStats are bit-identical to its solo run on the
// same carve for every worker count (tests/test_svc.cpp,
// tests/test_svc_parallel.cpp and bench/bench_jobsvc.cpp enforce this).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "svc/job.h"
#include "svc/pool.h"

namespace emcgm::svc {

struct ServiceConfig {
  /// `workers` default: resolve to std::thread::hardware_concurrency() at
  /// service construction (at least 1).
  static constexpr std::uint32_t kWorkersAuto = 0xFFFFFFFFu;

  PoolConfig pool;
  /// DRR refill per scheduling visit, in counted bytes. Smaller = finer
  /// interleaving (more barrier switches); the default is a few supersteps
  /// of a small job.
  std::uint64_t quantum_bytes = 1u << 20;
  /// Per-job tracer with the job name as tenant label (ObsConfig::tenant).
  bool trace = false;
  /// Execution-phase workers, the calling thread included (N - 1 threads
  /// are started). kWorkersAuto = hardware concurrency; 0 is rejected with
  /// IoError(kConfig). The schedule, and with it every
  /// per-tenant observable, is identical for all N >= 1 (N changes wall
  /// time only).
  std::uint32_t workers = kWorkersAuto;
  /// Test hook: called by the executing worker immediately before each
  /// step(slot_index, tick). Schedule-perturbation stress injects seeded
  /// sleeps here to prove worker timing cannot leak into results. Must be
  /// thread-safe; null (the default) costs one branch per step.
  std::function<void(std::size_t, std::uint64_t)> step_delay;
};

class JobService {
 public:
  explicit JobService(ServiceConfig cfg);

  /// Queue a job. Validates the spec now — pool feasibility and machine
  /// config both reject with typed IoError(kConfig) — so a bad job never
  /// reaches the tick loop. Jobs are admitted in submission order.
  void submit(JobSpec spec);

  /// Tick loop to completion. Returns per-job results in submission order;
  /// a failed job carries its error, the others complete normally.
  std::vector<JobResult> run_all();

  /// Scheduling ticks consumed by the last run_all().
  std::uint64_t ticks() const { return tick_; }

  /// Resolved execution-phase worker count (>= 1).
  std::uint32_t workers() const { return workers_; }

  /// Export the per-tenant traces of the last run_all() as one combined
  /// Chrome trace: every tenant's spans flushed in canonical (submission)
  /// order onto disjoint pid ranges. Requires ServiceConfig::trace; jobs
  /// that never admitted are skipped.
  void write_trace(const std::string& path) const;

 private:
  struct Slot {
    JobSpec spec;
    std::unique_ptr<Job> job;  ///< null until admitted
    bool finished = false;
  };

  /// Admit every queued job whose arrival tick passed and whose carve the
  /// pool can grant now (submission order; a blocked job does not let a
  /// later one overtake it within the same priority — carve order is FIFO).
  void admit();

  /// Group the chosen slots into work items: slots whose carve-outs share a
  /// pool host land in one item (stepped sequentially inside it). Items are
  /// ordered by their smallest slot index, members ascending — a pure
  /// function of the chosen set and the carves.
  std::vector<std::vector<std::size_t>> group_chosen(
      const std::vector<std::size_t>& chosen) const;

  ServiceConfig cfg_;
  MachinePool pool_;
  std::uint32_t workers_ = 0;  ///< resolved from cfg_.workers at construction
  std::vector<Slot> slots_;
  std::uint64_t tick_ = 0;
};

/// Run one job alone on an otherwise empty pool of the same geometry — the
/// reference side of the solo-vs-service bit-identity contract.
JobResult run_job_solo(JobSpec spec, const PoolConfig& pool,
                       bool trace = false);

/// The tenant check: names every field on which a tenant's service result
/// and its solo run disagree, in the format of cgm::run_mismatches — ok,
/// error, output_hash, supersteps, charged_bytes, app_rounds, failovers,
/// rejoins, io and net; never the name, ticks or preemptions, which the
/// service's schedule sets. Empty means the tenant was isolated.
std::string tenant_mismatches(const JobResult& tenant, const JobResult& solo);

}  // namespace emcgm::svc
