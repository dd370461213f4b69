// Robustness ablation: what fault tolerance costs on the paper's sort
// workload. Four machines run the same sample sort: the baseline, one with
// CRC32C block envelopes, one that also commits a checkpoint record after
// every physical superstep, and a checksummed machine surviving a 1% / block
// transient-fault storm through bounded retries. Reported: parallel I/Os,
// wall time, disk footprint, and the observed retry/corruption counters —
// i.e. the price of each guarantee in the currency the paper counts.
#include <cstdio>
#include <string>

#include "algo/sort.h"
#include "bench/bench_util.h"
#include "emcgm/em_engine.h"
#include "util/rng.h"

using namespace emcgm;
using namespace emcgm::bench;

namespace {

struct Probe {
  cgm::RunResult run;
  std::uint64_t ops;
  double wall_s;
  std::uint64_t tracks;
  std::uint64_t retries;
  std::uint64_t rtx;
  std::uint64_t wire;
};

std::vector<cgm::PartitionSet> sort_inputs(std::uint32_t v, std::size_t n) {
  auto keys = random_keys(9, n);
  cgm::PartitionSet input;
  input.parts.resize(v);
  for (std::uint32_t j = 0; j < v; ++j) {
    const auto b = chunk_begin(n, v, j), c = chunk_size(n, v, j);
    input.parts[j] = vec_to_bytes(
        std::vector<std::uint64_t>(keys.begin() + b, keys.begin() + b + c));
  }
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(input));
  return inputs;
}

Probe run(bool checksums, bool checkpointing, double fault_prob,
          std::size_t n, std::uint32_t p_real = 1, double loss_prob = 0.0,
          bool net = false, bool threads = false,
          const TraceOption* trace = nullptr, std::uint64_t kill_step = 0,
          bool rejoin = false, bool invariants = false) {
  cgm::MachineConfig cfg = standard_config(8, p_real, 4, 2048);
  cfg.checksums = checksums;
  cfg.checkpointing = checkpointing;
  cfg.use_threads = threads;
  cfg.chaos.invariants = invariants;
  if (fault_prob > 0) {
    cfg.fault.seed = 1234;
    cfg.fault.transient_read_prob = fault_prob;
    cfg.fault.transient_write_prob = fault_prob;
    cfg.retry.max_attempts = 12;  // absorb the storm
  }
  if (net) {
    cfg.net.enabled = true;
    cfg.net.fault.seed = 77;
    cfg.net.fault.drop_prob = loss_prob;
    cfg.net.fault.dup_prob = loss_prob / 2;
    cfg.net.fault.corrupt_prob = loss_prob / 2;
    cfg.net.fault.reorder_prob = loss_prob;
  }
  if (kill_step > 0) {
    // Membership ablation: proc 1 fail-stops at `kill_step`; with `rejoin`
    // its reboot fires three supersteps later and the engine re-admits it
    // with checkpoint catch-up and store-group re-balancing.
    cfg.checkpointing = true;
    cfg.net.failover = true;
    cfg.net.fault.fail_stops = {{1, kill_step}};
    if (rejoin) cfg.net.fault.rejoins = {{1, kill_step + 3}};
  }
  if (trace) trace->arm(cfg);
  em::EmEngine engine(checked(cfg));
  algo::SampleSortProgram<std::uint64_t> prog;
  engine.run(prog, sort_inputs(8, n));
  if (trace) trace->write(engine);

  Probe p{};
  p.run = engine.last_result();
  p.ops = engine.last_result().io.total_ops();
  p.wall_s = engine.last_result().wall_s;
  p.tracks = engine.tracks_used(0);
  p.retries = engine.io_stats(0).retries;
  p.rtx = engine.last_result().net.retransmissions;
  p.wire = engine.last_result().net.wire_bytes;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = json_arg(argc, argv);
  const TraceOption trace = trace_arg(argc, argv);
  const std::size_t n = 1u << 17;
  std::printf(
      "Robustness overhead on sample sort\n"
      "v=8, p=1, D=4, B=2 KiB, N=2^17 items, chained layout"
      " (network rows: p=2).\n"
      "Envelope: %u bytes per %u-byte block (%.1f%% capacity tax).\n\n",
      static_cast<unsigned>(pdm::kEnvelopeBytes), 2048u,
      100.0 * pdm::kEnvelopeBytes / 2048.0);

  Table t({"machine", "parallel I/Os", "wall s", "disk tracks", "retries",
           "net rtx", "wire (bytes)", "speedup"});
  const Probe base = run(false, false, 0.0, n);
  t.row({"baseline", fmt_u(base.ops), fmt(base.wall_s, 3), fmt_u(base.tracks),
         "0", "0", "0", "-"});
  {
    const auto p = run(true, false, 0.0, n);
    t.row({"+ CRC32C envelopes", fmt_u(p.ops), fmt(p.wall_s, 3),
           fmt_u(p.tracks), "0", "0", "0", "-"});
  }
  {
    const auto p = run(true, true, 0.0, n);
    t.row({"+ superstep checkpoints", fmt_u(p.ops), fmt(p.wall_s, 3),
           fmt_u(p.tracks), "0", "0", "0", "-"});
  }
  {
    const auto p = run(true, false, 0.01, n);
    t.row({"+ 1% transient faults, retried", fmt_u(p.ops), fmt(p.wall_s, 3),
           fmt_u(p.tracks), fmt_u(p.retries), "0", "0", "-"});
  }
  {
    // The clean p=2 network run is the traced one under --trace.
    const auto p = run(false, false, 0.0, n, 2, 0.0, true, false, &trace);
    t.row({"+ simulated network (p=2)", fmt_u(p.ops), fmt(p.wall_s, 3),
           fmt_u(p.tracks), "0", fmt_u(p.rtx), fmt_u(p.wire), "-"});
  }
  {
    const auto p = run(false, false, 0.0, n, 2, 0.10, true);
    t.row({"+ 10% lossy links, retransmitted", fmt_u(p.ops), fmt(p.wall_s, 3),
           fmt_u(p.tracks), "0", fmt_u(p.rtx), fmt_u(p.wire), "-"});
  }
  // Membership ablation at p=4: the checkpointed baseline, a mid-run death
  // absorbed by fail-over (degraded finish), and the same death with the
  // victim rejoining three supersteps later (checkpoint catch-up plus
  // store-group re-balancing). Output is bit-identical in all three.
  cgm::RunResult membership;
  {
    const auto clean = run(false, true, 0.0, n, 4, 0.0, true);
    t.row({"+ checkpointed network (p=4)", fmt_u(clean.ops),
           fmt(clean.wall_s, 3), fmt_u(clean.tracks), "0", fmt_u(clean.rtx),
           fmt_u(clean.wire), "-"});
    const auto kill = run(false, true, 0.0, n, 4, 0.0, true, false, nullptr,
                          2, false);
    t.row({"+ kill at step 2, failed over", fmt_u(kill.ops),
           fmt(kill.wall_s, 3), fmt_u(kill.tracks), "0", fmt_u(kill.rtx),
           fmt_u(kill.wire), "-"});
    const auto rej = run(false, true, 0.0, n, 4, 0.0, true, false, nullptr,
                         2, true);
    t.row({"+ kill, rejoin 3 steps later", fmt_u(rej.ops),
           fmt(rej.wall_s, 3), fmt_u(rej.tracks), "0", fmt_u(rej.rtx),
           fmt_u(rej.wire), "-"});
    if (kill.run.failovers == 0 || rej.run.rejoins == 0) {
      std::fprintf(stderr,
                   "membership rows did not exercise the machinery "
                   "(failovers=%llu rejoins=%llu)\n",
                   static_cast<unsigned long long>(kill.run.failovers),
                   static_cast<unsigned long long>(rej.run.rejoins));
      return 1;
    }
    membership = rej.run;
  }
  // Chaos invariant layer (watchdog, spread, exactly-once, commit
  // monotonicity, executor drain): the checks live on superstep barriers and
  // must not move a single count the run check compares; the row shows what
  // arming them costs in wall time on the checkpointed p=2 network machine.
  {
    const auto off = run(false, true, 0.0, n, 2, 0.0, true);
    const auto inv = run(false, true, 0.0, n, 2, 0.0, true, false, nullptr,
                         0, false, true);
    const std::string diffs = cgm::run_mismatches(off.run, inv.run);
    if (!diffs.empty()) {
      std::fprintf(stderr,
                   "the invariant layer moved a count (off != on): %s\n",
                   diffs.c_str());
      return 1;
    }
    t.row({"+ chaos invariant layer (p=2)", fmt_u(inv.ops),
           fmt(inv.wall_s, 3), fmt_u(inv.tracks), "0", fmt_u(inv.rtx),
           fmt_u(inv.wire), "-"});
  }
  // Thread-parallel host execution: serial vs threaded pairs at p=2 and
  // p=4 over the clean simulated network. The run check must name nothing
  // (threading changes who drives the round, not what the round does);
  // speedup is wall(serial)/wall(threads) and needs at least p cores to
  // exceed 1.
  for (std::uint32_t p_real : {2u, 4u}) {
    const auto serial = run(false, false, 0.0, n, p_real, 0.0, true);
    const auto thr = run(false, false, 0.0, n, p_real, 0.0, true, true);
    const std::string diffs = cgm::run_mismatches(serial.run, thr.run);
    if (!diffs.empty()) {
      std::fprintf(stderr,
                   "threads moved a count at p=%u (serial != threaded): %s\n",
                   p_real, diffs.c_str());
      return 1;
    }
    char label[64];
    std::snprintf(label, sizeof(label), "+ threaded hosts (p=%u)", p_real);
    t.row({label, fmt_u(thr.ops), fmt(thr.wall_s, 3), fmt_u(thr.tracks), "0",
           fmt_u(thr.rtx), fmt_u(thr.wire),
           fmt(serial.wall_s / thr.wall_s, 2) + "x"});
  }
  t.print();
  std::printf(
      "\nExpected shape: envelopes leave the parallel I/O count unchanged"
      " (the envelope rides inside the physical block); checkpoints add a"
      " small per-superstep record write, amortized over %llu supersteps;"
      " the fault storm costs retries roughly equal to 1%% of block"
      " transfers, with unchanged output. The lossy network recovers every"
      " frame through retransmission: delivered payload (and the sorted"
      " output) is identical to the clean-network row. Threaded rows run"
      " the hosts on real threads with concurrent network delivery"
      " (bit-identical outputs and I/O counts); wall-clock speedup over the"
      " serial rows materializes with >= p cores. The membership rows show"
      " what a death costs (checkpoint replay) and what taking the machine"
      " back costs on top (the rejoin handshake plus the re-balance"
      " hand-over) — output stays bit-identical to the clean run either"
      " way.\n",
      static_cast<unsigned long long>(base.run.app_rounds));
  std::printf(
      "Membership history of the kill+rejoin row: %llu fail-over(s), %llu"
      " rejoin(s), %llu store-group migration(s), %llu bytes of commit-record"
      " catch-up over the wire.\n",
      static_cast<unsigned long long>(membership.failovers),
      static_cast<unsigned long long>(membership.rejoins),
      static_cast<unsigned long long>(membership.net.rebalance_migrations),
      static_cast<unsigned long long>(membership.net.migration_bytes));
  write_json_report(json_path, {{"fault_overhead", t}});
  return 0;
}
