// Ablation: BalancedRouting (Algorithm 1 / Lemma 2). A shift permutation
// makes every virtual processor send its entire partition to one
// destination — the worst-case h-relation. Without balancing, message
// sizes span [0, N/v] and the fixed-slot message matrix must reserve
// N/v-sized slots for all v^2 pairs; with balancing, every physical
// message is within O(v) of N/v^2 and the matrix shrinks by ~v/2 at the
// price of doubling the communication supersteps.
//
// Second table: collective schedules (routing/schedule.h) on a 2-machine
// file_roots layout — 4 processors, 2 per machine. Delivered payload is
// bit-identical across schedules by construction; what moves is *where* the
// wire bytes go. The aggregating schedules (tree, hyper_systolic) must cut
// the host-crossing wire bytes vs direct, and this bench hard-fails (exit 1)
// if they do not, so the committed BENCH_ablation_routing.json can only ever
// show the claimed reduction.
#include <cstdio>
#include <filesystem>

#include "algo/permute.h"
#include "algo/sort.h"
#include "bench/bench_util.h"
#include "cgm/native_engine.h"
#include "emcgm/em_engine.h"
#include "routing/schedule.h"
#include "util/rng.h"

using namespace emcgm;
using namespace emcgm::bench;

namespace {

struct Probe {
  std::uint64_t min_msg, max_msg, comm_steps, ops, tracks;
};

Probe run(bool balanced, cgm::MsgLayout layout, std::size_t slot_bytes,
          std::size_t n, std::uint32_t v,
          const TraceOption* trace = nullptr) {
  cgm::MachineConfig cfg = standard_config(v, 1, 4, 2048);
  cfg.balanced_routing = balanced;
  cfg.layout = layout;
  cfg.staggered_slot_bytes = slot_bytes;
  if (trace) trace->arm(cfg);
  em::EmEngine engine(checked(cfg));

  auto values = random_keys(1, n);
  std::vector<std::uint64_t> shift(n);
  for (std::size_t i = 0; i < n; ++i) shift[i] = (i + n / v) % n;

  algo::PermuteProgram<std::uint64_t> prog(n);
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(cgm::even_chunks<std::uint64_t>(values, v));
  inputs.push_back(cgm::even_chunks<std::uint64_t>(shift, v));
  engine.run(prog, std::move(inputs));
  if (trace) trace->write(engine);

  // Message-size extremes come from the native engine's view of the same
  // physical traffic; rerun there for the statistics.
  cgm::MachineConfig ncfg;
  ncfg.v = v;
  ncfg.balanced_routing = balanced;
  cgm::NativeEngine native(ncfg);
  algo::PermuteProgram<std::uint64_t> nprog(n);
  std::vector<cgm::PartitionSet> ninputs;
  ninputs.push_back(cgm::even_chunks<std::uint64_t>(values, v));
  ninputs.push_back(cgm::even_chunks<std::uint64_t>(shift, v));
  native.run(nprog, std::move(ninputs));

  Probe p{};
  p.min_msg = ~0ull;
  for (const auto& s : native.last_result().comm.steps) {
    if (s.messages == 0) continue;
    p.min_msg = std::min(p.min_msg, s.min_msg_bytes);
    p.max_msg = std::max(p.max_msg, s.max_msg_bytes);
  }
  p.comm_steps = engine.last_result().comm_steps;
  p.ops = engine.last_result().io.total_ops();
  p.tracks = engine.tracks_used(0);
  return p;
}

// ------------------------------------------- collective schedule ablation --

struct SchedProbe {
  std::vector<cgm::PartitionSet> out;
  std::uint64_t payload, wire, crossing, rtx, sched_steps;
};

SchedProbe run_schedule(routing::ScheduleKind kind,
                        const std::vector<std::string>& roots,
                        const std::vector<std::uint64_t>& keys) {
  for (const char* r : {"/tmp/emcgm_bench_sched_hostA",
                        "/tmp/emcgm_bench_sched_hostB"}) {
    std::filesystem::remove_all(r);
  }
  const std::uint32_t v = 8;
  cgm::MachineConfig cfg = standard_config(v, 4, 2, 512);
  cfg.checkpointing = true;
  cfg.net.enabled = true;
  cfg.net.schedule = kind;
  cfg.backend = pdm::BackendKind::kFile;
  cfg.file_roots = roots;
  em::EmEngine engine(checked(cfg));

  algo::SampleSortProgram<std::uint64_t> prog;
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(cgm::even_chunks<std::uint64_t>(keys, v));

  SchedProbe p;
  p.out = engine.run(prog, std::move(inputs));
  p.payload = engine.last_result().comm.total_bytes();
  p.wire = engine.last_result().net.wire_bytes;
  p.crossing = engine.last_result().net.crossing_wire_bytes;
  p.rtx = engine.last_result().net.retransmissions;
  p.sched_steps = engine.schedule()->steps.size();
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const TraceOption trace = trace_arg(argc, argv);
  const std::string json_path = json_arg(argc, argv);
  const std::uint32_t v = 16;
  const std::size_t n = 1u << 16;
  std::printf(
      "Ablation: balanced routing under a worst-case (shift) h-relation\n"
      "v=16, p=1, D=4, B=2 KiB, N=2^16 items. Unbalanced staggered slots"
      " must hold N/v items; balanced slots hold ~2N/v^2.\n\n");

  // Routed items are (index, value) pairs of 16 bytes each.
  const std::size_t item = sizeof(prim::Tagged<std::uint64_t>);
  const std::size_t big_slot = (n / v) * item + 64;
  const std::size_t small_slot = 2 * (n / v / v) * item + 48 * v + 64;

  Table t({"configuration", "phys. msg bytes [min,max]", "comm supersteps",
           "parallel I/Os", "disk tracks used"});
  {
    auto p = run(false, cgm::MsgLayout::kStaggeredMatrix, big_slot, n, v);
    t.row({"unbalanced + staggered (slots = N/v)",
           "[" + fmt_u(p.min_msg) + ", " + fmt_u(p.max_msg) + "]",
           fmt_u(p.comm_steps), fmt_u(p.ops), fmt_u(p.tracks)});
  }
  {
    auto p = run(true, cgm::MsgLayout::kStaggeredMatrix, small_slot, n, v);
    t.row({"balanced + staggered (slots ~ 2N/v^2)",
           "[" + fmt_u(p.min_msg) + ", " + fmt_u(p.max_msg) + "]",
           fmt_u(p.comm_steps), fmt_u(p.ops), fmt_u(p.tracks)});
  }
  {
    auto p = run(false, cgm::MsgLayout::kChained, 0, n, v);
    t.row({"unbalanced + chained",
           "[" + fmt_u(p.min_msg) + ", " + fmt_u(p.max_msg) + "]",
           fmt_u(p.comm_steps), fmt_u(p.ops), fmt_u(p.tracks)});
  }
  {
    // The balanced + chained run is the traced one under --trace.
    auto p = run(true, cgm::MsgLayout::kChained, 0, n, v, &trace);
    t.row({"balanced + chained",
           "[" + fmt_u(p.min_msg) + ", " + fmt_u(p.max_msg) + "]",
           fmt_u(p.comm_steps), fmt_u(p.ops), fmt_u(p.tracks)});
  }
  t.print();
  std::printf(
      "\nExpected shape (Theorem 1 / Lemma 2): balancing narrows every"
      " physical message into a tight band around N/v^2 bytes (here:"
      " %zu-byte slots instead of %zu-byte slots — a factor ~v/2 smaller"
      " reservation per (src,dst) pair) at the cost of exactly 2x"
      " communication supersteps.\n",
      small_slot, big_slot);

  std::printf(
      "\nAblation: collective schedules on a 2-machine layout\n"
      "v=8, p=4, D=2, B=512 B file backend; file_roots place p0,p1 on one"
      " machine and p2,p3 on the other. Same delivered payload for every"
      " schedule; aggregation moves wire bytes off the crossing links.\n\n");
  const std::vector<std::string> roots = {
      "/tmp/emcgm_bench_sched_hostA/p0", "/tmp/emcgm_bench_sched_hostA/p1",
      "/tmp/emcgm_bench_sched_hostB/p2", "/tmp/emcgm_bench_sched_hostB/p3"};
  const auto sort_keys = random_keys(8441, 2500);

  Table st({"schedule", "delivered payload", "wire bytes", "crossing bytes",
            "retransmissions", "sched steps / superstep"});
  const auto direct =
      run_schedule(routing::ScheduleKind::kDirect, roots, sort_keys);
  bool gate_ok = true;
  for (routing::ScheduleKind kind :
       {routing::ScheduleKind::kDirect, routing::ScheduleKind::kRing,
        routing::ScheduleKind::kTree,
        routing::ScheduleKind::kHyperSystolic}) {
    const auto p = kind == routing::ScheduleKind::kDirect
                       ? direct
                       : run_schedule(kind, roots, sort_keys);
    st.row({routing::to_string(kind), fmt_u(p.payload), fmt_u(p.wire),
            fmt_u(p.crossing), fmt_u(p.rtx), fmt_u(p.sched_steps)});
    if (kind == routing::ScheduleKind::kDirect) continue;
    if (p.out != direct.out || p.payload != direct.payload) {
      std::fprintf(stderr, "FAIL: %s output diverged from direct\n",
                   routing::to_string(kind));
      gate_ok = false;
    }
    const bool aggregating = kind == routing::ScheduleKind::kTree ||
                             kind == routing::ScheduleKind::kHyperSystolic;
    if (aggregating && p.crossing >= direct.crossing) {
      std::fprintf(stderr,
                   "FAIL: %s crossing bytes %llu >= direct %llu — the"
                   " aggregation claim does not hold\n",
                   routing::to_string(kind),
                   static_cast<unsigned long long>(p.crossing),
                   static_cast<unsigned long long>(direct.crossing));
      gate_ok = false;
    }
  }
  for (const char* r : {"/tmp/emcgm_bench_sched_hostA",
                        "/tmp/emcgm_bench_sched_hostB"}) {
    std::filesystem::remove_all(r);
  }
  st.print();
  std::printf(
      "\nExpected shape: tree and hyper_systolic route each machine's"
      " traffic through leader links, so crossing bytes drop below direct"
      " while total wire bytes absorb the store-and-forward relay tax."
      " The bench exits nonzero if the crossing-byte reduction or the"
      " bit-identical-output guarantee fails.\n");

  write_json_report(json_path,
                    {{"balanced_routing_worst_case_h_relation", t},
                     {"collective_schedules_two_machine_layout", st}});
  return gate_ok ? 0 : 1;
}
