// One tenant of the job service: a staged workload bound to a machine
// carved out of the shared pool, driven superstep-by-superstep through the
// engine's cooperative API.
//
// A Job owns its entire machine — EmEngine, disk arrays, stores, simulated
// network, tracer — built from a MachineConfig that is a pure function of
// the JobSpec and the pool's disk geometry. Preemption is simply the
// scheduler not calling step() for a while: the engine is quiescent between
// barriers, so nothing is saved or restored. Consequently a job's superstep
// sequence — and with it its outputs, IoStats and NetStats — is the same
// whether it runs alone or interleaved with any set of co-resident tenants.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "emcgm/em_engine.h"
#include "svc/pool.h"
#include "svc/workload.h"

namespace emcgm::svc {

/// What a job file submits. Everything that shapes the simulation is here;
/// the pool supplies only block geometry and host capacity.
struct JobSpec {
  std::string name;
  std::string workload = "sort";  ///< sort | list_rank | maxima
  std::uint64_t n = 1024;         ///< input items
  std::uint64_t seed = 1;         ///< input generation + machine seed
  std::uint32_t v = 8;            ///< virtual processors
  std::uint32_t hosts = 1;        ///< pool hosts to carve
  std::uint32_t disks = 4;        ///< disks per carved host
  std::uint32_t priority = 0;     ///< higher preempts lower (at barriers)
  std::uint64_t arrival_tick = 0; ///< service tick the job arrives at
  bool use_threads = false;
  std::uint32_t io_threads = 0;
  std::uint32_t prefetch_depth = 1;
  /// Optional chaos::ChaosPlan JSON armed on this tenant's machine only —
  /// co-resident tenants are structurally untouched by it.
  std::string chaos_json;
};

/// The machine a spec runs on: memory backend, p = spec.hosts, D =
/// spec.disks of pool block size, network enabled iff p > 1, chaos plan
/// applied last (it may switch on checkpointing/fail-over). `tenant_trace`
/// turns on the per-job tracer with the job name as tenant label.
cgm::MachineConfig make_machine_config(const JobSpec& spec,
                                       const PoolConfig& pool,
                                       bool tenant_trace);

/// Per-job outcome + per-tenant stats, bit-comparable to a solo run.
struct JobResult {
  std::string name;
  bool ok = false;
  std::string error;               ///< failure reason when !ok
  std::uint64_t output_hash = 0;   ///< FNV-1a over the final output bytes
  std::uint64_t supersteps = 0;    ///< cooperative step() calls executed
  std::uint64_t preemptions = 0;   ///< barriers where the scheduler switched away
  std::uint64_t admit_tick = 0;    ///< pool carve granted
  std::uint64_t end_tick = 0;      ///< finished or failed
  std::uint64_t charged_bytes = 0; ///< arbitration cost the DRR accounts saw
  std::uint64_t app_rounds = 0;
  std::uint64_t failovers = 0;
  std::uint64_t rejoins = 0;
  pdm::IoStats io;                 ///< summed over the job's real processors
  net::NetStats net;               ///< the job's own network (p > 1)
};

class Job {
 public:
  /// Built at admission, with the pool carve already granted. Constructs
  /// the engine (cfg.validate() throws typed kConfig on a bad spec) and
  /// installs the arbitration charge hooks.
  Job(JobSpec spec, const PoolConfig& pool, std::vector<std::uint32_t> carve,
      bool tenant_trace);

  const JobSpec& spec() const { return spec_; }
  const std::vector<std::uint32_t>& carve() const { return carve_; }

  /// Run one superstep (or start the next stage at a stage boundary) and
  /// return at the barrier. False once the workload finished or failed —
  /// the result is then final. Never throws: a failure is captured into
  /// the result (the service keeps running the other tenants).
  bool step();

  bool done() const { return done_; }
  bool ok() const { return done_ && error_.empty(); }

  /// Drain the arbitration cost accumulated since the last call (counted
  /// bytes: blocks * block_bytes + wire bytes). Called by the scheduler at
  /// barriers; the engine is quiescent then, so the value is the exact cost
  /// of the steps since the previous drain.
  std::uint64_t take_charge() {
    return charge_.exchange(0, std::memory_order_relaxed);
  }

  /// Scheduler bookkeeping (service-owned, stored here for locality).
  std::int64_t deficit = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t admit_tick = 0;
  std::uint64_t end_tick = 0;
  std::uint64_t charged_total = 0;

  /// Finalize the result (requires done()).
  JobResult result() const;

  const em::EmEngine& engine() const { return *engine_; }

 private:
  JobSpec spec_;
  std::vector<std::uint32_t> carve_;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<cgm::Program> program_;  ///< program of the running stage
  std::unique_ptr<em::EmEngine> engine_;
  std::vector<cgm::PartitionSet> pending_inputs_;
  std::uint32_t stage_ = 0;
  std::uint64_t supersteps_ = 0;
  std::uint64_t hash_ = 0;
  bool done_ = false;
  std::string error_;
  /// Charge sink for both hooks. Atomic: the I/O hook fires from async
  /// executor submitters, which under use_threads are the engine's host
  /// workers.
  std::atomic<std::uint64_t> charge_{0};
};

}  // namespace emcgm::svc
