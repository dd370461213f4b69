#include "chaos/fuzzer.h"

#include <sstream>

#include "algo/sort.h"
#include "chaos/chaos_config.h"
#include "emcgm/em_engine.h"
#include "pdm/fault.h"
#include "util/math.h"
#include "util/rng.h"

namespace emcgm::chaos {

namespace {

std::vector<cgm::PartitionSet> sort_inputs(const FuzzMachine& m) {
  Rng rng(12345);
  std::vector<std::uint64_t> keys(m.keys);
  for (auto& k : keys) k = rng.next_below(1000);  // duplicate-heavy
  cgm::PartitionSet set;
  set.parts.resize(m.v);
  for (std::uint32_t j = 0; j < m.v; ++j) {
    const auto begin = chunk_begin(keys.size(), m.v, j);
    const auto count = chunk_size(keys.size(), m.v, j);
    std::vector<std::uint64_t> part(keys.begin() + begin,
                                    keys.begin() + begin + count);
    set.parts[j] = vec_to_bytes(part);
  }
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(set));
  return inputs;
}

cgm::MachineConfig base_config(const FuzzMachine& m) {
  cgm::MachineConfig cfg;
  cfg.v = m.v;
  cfg.p = m.p;
  cfg.disk.num_disks = m.num_disks;
  cfg.disk.block_bytes = m.block_bytes;
  cfg.io_threads = m.io_threads;
  cfg.use_threads = m.use_threads;
  cfg.layout = cgm::MsgLayout::kChained;
  cfg.checkpointing = true;
  cfg.checksums = true;
  cfg.backend = m.backend;
  cfg.file_dir = m.file_dir;
  cfg.seed = 7;
  // Absorb transient faults instead of dying on them, and never sleep for
  // real — fuzz throughput over backoff realism.
  cfg.retry.max_attempts = 50;
  cfg.retry.sleep = [](std::uint64_t) {};
  if (m.p > 1) cfg.net.enabled = true;
  return cfg;
}

FuzzOutcome classify_outputs(const std::vector<cgm::PartitionSet>& got,
                             const std::vector<cgm::PartitionSet>& ref,
                             FuzzStatus ok_status, const ChaosPlan& plan) {
  FuzzOutcome out;
  out.plan = plan;
  if (got == ref) {
    out.status = ok_status;
  } else {
    out.status = FuzzStatus::kDivergence;
    out.detail = "completed run's outputs differ from the clean reference";
  }
  return out;
}

}  // namespace

const char* to_string(FuzzStatus s) {
  switch (s) {
    case FuzzStatus::kIdentical:        return "identical";
    case FuzzStatus::kResumedIdentical: return "resumed-identical";
    case FuzzStatus::kTypedFailure:     return "typed-failure";
    case FuzzStatus::kDivergence:       return "DIVERGENCE";
    case FuzzStatus::kInvariant:        return "INVARIANT-VIOLATION";
    case FuzzStatus::kUntypedFailure:   return "UNTYPED-FAILURE";
  }
  return "unknown";
}

std::string FuzzReport::summary() const {
  std::ostringstream os;
  os << runs << " plans:";
  for (int s = 0; s < 6; ++s) {
    if (by_status[s] == 0) continue;
    os << " " << to_string(static_cast<FuzzStatus>(s)) << "="
       << by_status[s];
  }
  return os.str();
}

std::vector<cgm::PartitionSet> run_reference(const FuzzMachine& machine) {
  algo::SampleSortProgram<std::uint64_t> prog;
  em::EmEngine engine(base_config(machine));
  return engine.run(prog, sort_inputs(machine));
}

FuzzOutcome run_plan(const ChaosPlan& plan, const FuzzMachine& machine,
                     const std::vector<cgm::PartitionSet>& reference) {
  algo::SampleSortProgram<std::uint64_t> prog;
  cgm::MachineConfig cfg = base_config(machine);
  try {
    plan.apply(cfg);
    cfg.chaos.invariants = true;
    em::EmEngine engine(cfg);
    try {
      const auto got = engine.run(prog, sort_inputs(machine));
      return classify_outputs(got, reference, FuzzStatus::kIdentical, plan);
    } catch (const InvariantViolation& iv) {
      return FuzzOutcome{FuzzStatus::kInvariant, iv.what(), plan};
    } catch (const Error& e) {
      // Typed abort. "Repair the machine" — lift every capacity quota,
      // disarm the fault injectors — and attempt the recovery path the
      // checkpoint protocol promises: one resume() to bit-identical output.
      const std::string first = e.what();
      for (std::uint32_t r = 0; r < cfg.p; ++r) {
        engine.set_disk_quota_bytes(r, 0);
      }
      engine.disarm_faults();
      if (!engine.has_checkpoint()) {
        return FuzzOutcome{FuzzStatus::kTypedFailure, first, plan};
      }
      try {
        const auto got = engine.resume(prog);
        return classify_outputs(got, reference,
                                FuzzStatus::kResumedIdentical, plan);
      } catch (const InvariantViolation& iv) {
        return FuzzOutcome{FuzzStatus::kInvariant, iv.what(), plan};
      } catch (const Error& e2) {
        // Silent corruption already on disk (torn write / bit flip under a
        // committed block) can legitimately survive a replay; a typed
        // detection is the contract.
        return FuzzOutcome{FuzzStatus::kTypedFailure,
                           first + "; resume: " + e2.what(), plan};
      }
    }
  } catch (const Error& e) {
    // Construction / config rejection — typed by definition.
    return FuzzOutcome{FuzzStatus::kTypedFailure, e.what(), plan};
  } catch (const std::exception& e) {
    return FuzzOutcome{FuzzStatus::kUntypedFailure, e.what(), plan};
  }
}

FuzzReport fuzz(std::uint64_t seed, std::uint32_t n_plans,
                const FuzzMachine& machine, const PlanShape& shape) {
  const auto reference = run_reference(machine);
  FuzzReport report;
  for (std::uint32_t i = 0; i < n_plans; ++i) {
    const std::uint64_t plan_seed =
        pdm::fault_mix(seed ^ (0xC2B2AE3D27D4EB4FULL * (i + 1)));
    const ChaosPlan plan =
        ChaosPlan::generate(plan_seed == 0 ? 1 : plan_seed, shape);
    FuzzOutcome out = run_plan(plan, machine, reference);
    ++report.runs;
    ++report.by_status[static_cast<int>(out.status)];
    if (!fuzz_ok(out.status)) report.findings.push_back(std::move(out));
  }
  return report;
}

}  // namespace emcgm::chaos
