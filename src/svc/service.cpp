#include "svc/service.h"

#include <thread>
#include <utility>

#include "obs/export.h"
#include "util/error.h"
#include "util/worker_pool.h"

namespace emcgm::svc {

JobService::JobService(ServiceConfig cfg) : cfg_(cfg), pool_(cfg.pool) {
  if (cfg_.quantum_bytes == 0) {
    throw IoError(IoErrorKind::kConfig,
                  "quantum_bytes == 0 would never let a burst run");
  }
  if (cfg_.workers == 0) {
    throw IoError(IoErrorKind::kConfig,
                  "workers == 0 would never step a tenant (want >= 1)");
  }
  if (cfg_.workers == ServiceConfig::kWorkersAuto) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers_ = hw > 0 ? static_cast<std::uint32_t>(hw) : 1u;
  } else {
    workers_ = cfg_.workers;
  }
}

void JobService::submit(JobSpec spec) {
  if (spec.name.empty()) {
    throw IoError(IoErrorKind::kConfig, "job without a name");
  }
  for (const Slot& s : slots_) {
    if (s.spec.name == spec.name) {
      throw IoError(IoErrorKind::kConfig,
                    "duplicate job name '" + spec.name + "'");
    }
  }
  // Reject everything rejectable before the tick loop: infeasible
  // carve-outs, bad machine shapes, unknown workloads.
  pool_.check_feasible(spec.name, spec.hosts, spec.disks);
  make_machine_config(spec, cfg_.pool, cfg_.trace).validate();
  make_workload(spec.workload, spec.n, spec.seed);
  slots_.push_back(Slot{std::move(spec), nullptr, false});
}

void JobService::admit() {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (s.job || s.finished) continue;
    if (s.spec.arrival_tick > tick_) continue;
    auto carve = pool_.try_acquire(s.spec.hosts, s.spec.disks);
    if (carve.empty()) {
      // FIFO admission: a job waiting for capacity blocks later arrivals,
      // so carve order (and with it the whole schedule) stays a function of
      // submission order alone.
      break;
    }
    s.job = std::make_unique<Job>(s.spec, cfg_.pool, std::move(carve),
                                  cfg_.trace);
    s.job->admit_tick = tick_;
  }
}

std::vector<std::vector<std::size_t>> JobService::group_chosen(
    const std::vector<std::size_t>& chosen) const {
  // Union-find over the chosen set, keyed by pool host: two tenants whose
  // carve-outs touch the same host must not be stepped concurrently (their
  // simulated disks live on the same capacity), so they fuse into one item.
  std::vector<std::size_t> parent(chosen.size());
  for (std::size_t i = 0; i < chosen.size(); ++i) parent[i] = i;
  auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::vector<std::size_t> host_owner(cfg_.pool.hosts, SIZE_MAX);
  for (std::size_t ci = 0; ci < chosen.size(); ++ci) {
    for (std::uint32_t h : slots_[chosen[ci]].job->carve()) {
      if (host_owner[h] == SIZE_MAX) {
        host_owner[h] = ci;
      } else {
        parent[find(ci)] = find(host_owner[h]);
      }
    }
  }
  // Materialize components in canonical order: items by smallest member,
  // members ascending (chosen is already ascending by slot index).
  std::vector<std::vector<std::size_t>> items;
  std::vector<std::size_t> root_item(chosen.size(), SIZE_MAX);
  for (std::size_t ci = 0; ci < chosen.size(); ++ci) {
    const std::size_t r = find(ci);
    if (root_item[r] == SIZE_MAX) {
      root_item[r] = items.size();
      items.emplace_back();
    }
    items[root_item[r]].push_back(chosen[ci]);
  }
  return items;
}

std::vector<JobResult> JobService::run_all() {
  WorkerPool wpool(workers_);
  // Chosen-set membership of the previous round, for the preemption
  // transition rule below. Kept across empty rounds (rounds where the dry
  // class is refilling): a tenant parked while *nothing* runs was not
  // switched away from.
  std::vector<char> prev_chosen(slots_.size(), 0);

  for (;;) {
    bool all_done = true;
    for (const Slot& s : slots_) {
      if (!s.finished) all_done = false;
    }
    if (all_done) break;

    ++tick_;
    admit();

    // ---- arbitration phase (single thread, pure function of the specs) --
    std::uint32_t best = 0;
    bool any = false;
    for (const Slot& s : slots_) {
      if (!s.job || s.finished) continue;
      if (!any || s.spec.priority > best) best = s.spec.priority;
      any = true;
    }
    if (!any) continue;  // only future arrivals remain; let the tick pass

    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const Slot& s = slots_[i];
      if (s.job && !s.finished && s.spec.priority == best) {
        eligible.push_back(i);
      }
    }
    // DRR, refill-all-when-dry: when no tenant of the top class has credit,
    // every one of them gains a quantum — equal shares in counted bytes,
    // and a deep overdraft only delays its own burst, never starves the
    // round (the refill repeats each dry round until credit goes positive).
    bool has_credit = false;
    for (std::size_t i : eligible) {
      if (slots_[i].job->deficit > 0) has_credit = true;
    }
    if (!has_credit) {
      for (std::size_t i : eligible) {
        slots_[i].job->deficit +=
            static_cast<std::int64_t>(cfg_.quantum_bytes);
      }
    }
    std::vector<std::size_t> chosen;
    for (std::size_t i : eligible) {
      if (slots_[i].job->deficit > 0) chosen.push_back(i);
    }
    if (chosen.empty()) continue;  // class still refilling its accounts

    // ---- parallel execution phase ---------------------------------------
    // One task per work item; inside an item, co-resident tenants step
    // sequentially in slot order (structural serialization). `more` slots
    // are distinct memory locations per tenant, and run() is a barrier, so
    // the join below reads them race-free.
    const std::vector<std::vector<std::size_t>> items = group_chosen(chosen);
    std::vector<char> more(slots_.size(), 0);
    wpool.run(items.size(), [&](std::size_t k) {
      for (std::size_t i : items[k]) {
        if (cfg_.step_delay) cfg_.step_delay(i, tick_);
        more[i] = slots_[i].job->step() ? 1 : 0;
      }
    });

    // ---- join (single thread, canonical slot order) ---------------------
    for (std::size_t i : chosen) {
      Job* job = slots_[i].job.get();
      const std::uint64_t cost = job->take_charge();
      job->deficit -= static_cast<std::int64_t>(cost);
      job->charged_total += cost;
      if (!more[i]) {
        job->end_tick = tick_;
        slots_[i].finished = true;
        pool_.release(job->carve(), slots_[i].spec.disks);
      }
    }

    // Preemption accounting — two rules, both schedule-deterministic:
    //  * structural: a tenant stepped inside a shared work item paused at
    //    its barrier so a co-resident could run;
    //  * transition: a tenant the scheduler stepped last round but not this
    //    round — while something else ran — was switched away from.
    for (const std::vector<std::size_t>& item : items) {
      if (item.size() < 2) continue;
      for (std::size_t i : item) {
        if (!slots_[i].finished) ++slots_[i].job->preemptions;
      }
    }
    std::vector<char> chosen_mask(slots_.size(), 0);
    for (std::size_t i : chosen) chosen_mask[i] = 1;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const Slot& s = slots_[i];
      if (s.job && !s.finished && prev_chosen[i] && !chosen_mask[i]) {
        ++s.job->preemptions;
      }
    }
    prev_chosen = std::move(chosen_mask);
  }

  std::vector<JobResult> results;
  results.reserve(slots_.size());
  for (const Slot& s : slots_) results.push_back(s.job->result());
  return results;
}

void JobService::write_trace(const std::string& path) const {
  std::vector<obs::TenantTrace> tenants;
  for (const Slot& s : slots_) {
    if (!s.job) continue;
    const obs::Tracer* t = s.job->engine().tracer();
    if (!t) continue;
    tenants.push_back(obs::TenantTrace{t, s.job->engine().metrics()});
  }
  obs::write_chrome_trace_multi(path, tenants);
}

JobResult run_job_solo(JobSpec spec, const PoolConfig& pool, bool trace) {
  ServiceConfig sc;
  sc.pool = pool;
  sc.trace = trace;
  spec.arrival_tick = 0;
  JobService svc(sc);
  svc.submit(std::move(spec));
  return svc.run_all().at(0);
}

std::string tenant_mismatches(const JobResult& tenant, const JobResult& solo) {
  std::string out;
  cgm::note_mismatch(out, "ok", tenant.ok, solo.ok);
  if (tenant.error != solo.error) cgm::note_mismatch(out, "error");
  cgm::note_mismatch(out, "output_hash", tenant.output_hash, solo.output_hash);
  cgm::note_mismatch(out, "supersteps", tenant.supersteps, solo.supersteps);
  cgm::note_mismatch(out, "charged_bytes", tenant.charged_bytes,
                     solo.charged_bytes);
  // The engine totals are a RunResult's; the run check names those.
  auto run_of = [](const JobResult& r) {
    cgm::RunResult run;
    run.app_rounds = r.app_rounds;
    run.io = r.io;
    run.net = r.net;
    run.failovers = r.failovers;
    run.rejoins = r.rejoins;
    return run;
  };
  cgm::note_mismatch(out, cgm::run_mismatches(run_of(tenant), run_of(solo)));
  return out;
}

}  // namespace emcgm::svc
