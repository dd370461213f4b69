#include "svc/job.h"

#include <utility>

#include "chaos/plan.h"
#include "util/error.h"

namespace emcgm::svc {

cgm::MachineConfig make_machine_config(const JobSpec& spec,
                                       const PoolConfig& pool,
                                       bool tenant_trace) {
  cgm::MachineConfig cfg;
  cfg.v = spec.v;
  cfg.p = spec.hosts;
  cfg.disk.num_disks = spec.disks;
  cfg.disk.block_bytes = pool.block_bytes;
  cfg.seed = spec.seed;
  cfg.use_threads = spec.use_threads;
  cfg.io_threads = spec.io_threads;
  cfg.prefetch_depth = spec.prefetch_depth;
  cfg.backend = pdm::BackendKind::kMemory;
  // Multi-host jobs route crossing messages through their own simulated
  // network, so the net arbitration hook sees their wire traffic.
  cfg.net.enabled = spec.hosts > 1;
  if (tenant_trace) {
    cfg.obs.trace = true;
    cfg.obs.tenant = spec.name;
  }
  // Chaos last: membership events switch on the engine features they need
  // (checkpointing, fail-over, rejoin) on top of the base config. A faulted
  // tenant also gets the standard absorb rig — checksums to catch corrupt
  // blocks, a deep retry budget with a no-op sleep so transient faults cost
  // counted work instead of wall time, and checkpointing for crash events.
  if (!spec.chaos_json.empty()) {
    cfg.checksums = true;
    cfg.checkpointing = true;
    cfg.retry.max_attempts = 50;
    cfg.retry.sleep = [](std::uint64_t) {};
    chaos::ChaosPlan::parse_json(spec.chaos_json).apply(cfg);
  }
  return cfg;
}

Job::Job(JobSpec spec, const PoolConfig& pool, std::vector<std::uint32_t> carve,
         bool tenant_trace)
    : spec_(std::move(spec)),
      carve_(std::move(carve)),
      workload_(make_workload(spec_.workload, spec_.n, spec_.seed)) {
  engine_ = std::make_unique<em::EmEngine>(
      make_machine_config(spec_, pool, tenant_trace));
  pending_inputs_ = workload_->initial_inputs(spec_.v);
  // Both hooks feed one per-job account in counted bytes: deterministic
  // work, never wall time, so the DRR schedule replays bit-identically.
  const std::size_t bb = pool.block_bytes;
  engine_->set_io_charge_hook([this, bb](std::uint64_t blocks) {
    charge_.fetch_add(blocks * bb, std::memory_order_relaxed);
  });
  engine_->set_net_charge_hook([this](std::uint64_t wire) {
    charge_.fetch_add(wire, std::memory_order_relaxed);
  });
}

bool Job::step() {
  if (done_) return false;
  try {
    if (!engine_->active()) {
      // Stage boundary: install the next program. The setup I/O (initial
      // context/input writes) runs inside this call — one barrier-to-barrier
      // unit of work like any superstep.
      program_ = workload_->program(stage_, spec_.seed);
      engine_->start(*program_, std::move(pending_inputs_));
      pending_inputs_.clear();
      ++supersteps_;
      return true;
    }
    if (engine_->step()) {
      ++supersteps_;
      return true;
    }
    auto outs = engine_->finish();
    ++supersteps_;
    ++stage_;
    if (stage_ < workload_->stages()) {
      pending_inputs_ = std::move(outs);
      return true;
    }
    workload_->check(outs);
    hash_ = output_hash(outs);
    done_ = true;
  } catch (const std::exception& e) {
    error_ = e.what();
    if (error_.empty()) error_ = "unknown failure";
    done_ = true;
  }
  return false;
}

JobResult Job::result() const {
  EMCGM_CHECK_MSG(done_, "job result collected before completion");
  JobResult r;
  r.name = spec_.name;
  r.ok = error_.empty();
  r.error = error_;
  r.output_hash = hash_;
  r.supersteps = supersteps_;
  r.preemptions = preemptions;
  r.admit_tick = admit_tick;
  r.end_tick = end_tick;
  r.charged_bytes = charged_total;
  const cgm::RunResult& t = engine_->total();
  r.app_rounds = t.app_rounds;
  r.failovers = t.failovers;
  r.rejoins = t.rejoins;
  r.io = t.io;
  r.net = t.net;
  return r;
}

}  // namespace emcgm::svc
