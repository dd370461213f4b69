// Paper §5 (BSP and BSP* algorithms): a conforming BSP algorithm converts
// to a BSP* algorithm with minimum message size b = h/v - (v-1)/2 via
// BalancedRouting (Corollary 1), at the cost of doubling the rounds. We
// measure a real conforming algorithm (the CGM sample sort) with and
// without the conversion: the fraction of physical messages meeting the
// BSP* block parameter, and the BSP/BSP* model costs.
#include <cstdio>

#include "algo/sort.h"
#include "bench/bench_util.h"
#include "cgm/bsp_cost.h"
#include "util/rng.h"

using namespace emcgm;
using namespace emcgm::bench;

int main(int argc, char** argv) {
  const TraceOption trace = trace_arg(argc, argv);
  const std::string json_path = json_arg(argc, argv);
  const std::uint32_t v = 16;
  const std::size_t n = 1u << 16;
  auto keys = random_keys(8, n);

  std::printf(
      "Paper §5: BSP -> BSP* conversion via BalancedRouting\n"
      "conforming algorithm: CGM sample sort, v=%u, N=%zu items\n\n",
      v, n);

  cgm::BspParams params;
  params.g = 1.0;
  params.L = 10000.0;
  // Corollary 1 block parameter for the dominant h-relation (the bucket
  // exchange moves ~2N bytes of tagged records).
  const std::uint64_t h = 2 * n * sizeof(std::uint64_t);
  params.bsp_star_b = cgm::bsp_star_block_size(h, v) / 8;

  Table t({"configuration", "comm supersteps", "max h (bytes)",
           "min msg (bytes)", "Cor. 1 compliance", "T_comm (BSP)"});
  for (bool balanced : {false, true}) {
    cgm::MachineConfig cfg;
    cfg.v = v;
    cfg.balanced_routing = balanced;
    // The balanced native run is the traced one under --trace (the native
    // engine emits superstep/compute/deliver spans).
    if (balanced) trace.arm(cfg);
    cgm::Machine m(cgm::EngineKind::kNative, checked(cfg));
    algo::sort_keys(m, keys);
    if (balanced) trace.write(m.engine());
    const auto& res = m.total();
    std::uint64_t min_msg = ~0ull;
    for (const auto& s : res.comm.steps) {
      if (s.messages > 0) min_msg = std::min(min_msg, s.min_msg_bytes);
    }
    const auto cost = cgm::evaluate_bsp_cost(res, params);
    t.row({balanced ? "balanced (2 rounds per h-relation)" : "raw",
           fmt_u(res.comm_steps), fmt_u(res.comm.max_h_bytes()),
           fmt_u(min_msg),
           fmt(cgm::corollary1_compliance(res.comm, v), 3),
           fmt(cost.t_comm, 0)});
  }
  t.print();

  std::printf(
      "\nLemma 1: assuring minimum message size b on v processors needs"
      " N >= v^2 b + v^2(v-1)/2 bytes:\n");
  Table l({"v", "b = 1 KiB", "b = 64 KiB"});
  for (std::uint32_t vv : {8u, 64u, 512u}) {
    l.row({fmt_u(vv), fmt_u(cgm::lemma1_min_problem_bytes(1024, vv)),
           fmt_u(cgm::lemma1_min_problem_bytes(65536, vv))});
  }
  l.print();
  std::printf(
      "\nExpected shape: the balanced run meets the per-round Corollary 1"
      " guarantee (compliance 1.0) — every physical message is within the"
      " slack of its round's h/v — while the raw h-relations ship"
      " arbitrarily small messages.\n");
  write_json_report(json_path, {{"bsp_to_bsp_star_conversion", t},
                                {"lemma1_min_problem_bytes", l}});
  return 0;
}
