// Figure 3: running time of CGM sort — (a) the conventional in-memory CGM
// machine ("virtual memory + LAM-MPI" in the paper) versus (b) the same
// algorithm converted to an EM-CGM algorithm by the deterministic
// simulation. The paper's claim: both scale linearly in N; the simulated
// version adds only blocked, fully parallel I/O.
#include <cstdio>

#include "algo/sort.h"
#include "bench/bench_util.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace emcgm;
using namespace emcgm::bench;

int main(int argc, char** argv) {
  const std::string json_path = json_arg(argc, argv);
  const TraceOption trace = trace_arg(argc, argv);
  std::printf(
      "Fig. 3 reproduction: CGM sample sort, native CGM machine vs EM-CGM"
      " simulation\n"
      "v=16 virtual processors, p=1, D=4 disks, B=8 KiB; modeled disk time"
      " uses 1990s-era service constants.\n\n");

  const std::uint32_t v = 16, D = 4;
  const std::size_t B = 8192;
  pdm::DiskCostModel cost;

  Table t({"N (items)", "native wall (s)", "EM wall (s)", "EM parallel I/Os",
           "EM modeled I/O (s)", "ops / (N/DB)", "native s/item (ns)",
           "EM s/item (ns)"});
  for (std::size_t n : {1u << 14, 1u << 15, 1u << 16, 1u << 17, 1u << 18}) {
    auto keys = random_keys(42 + n, n);

    cgm::Machine native(cgm::EngineKind::kNative, checked(standard_config(v, 1, D, B)));
    Timer tn;
    auto sorted_native = algo::sort_keys(native, keys);
    const double wall_native = tn.elapsed_s();

    cgm::Machine em(cgm::EngineKind::kEm, checked(standard_config(v, 1, D, B)));
    Timer te;
    auto sorted_em = algo::sort_keys(em, keys);
    const double wall_em = te.elapsed_s();
    if (sorted_native != sorted_em) {
      std::fprintf(stderr, "MISMATCH at n=%zu\n", n);
      return 1;
    }

    const auto ops = em.total().io.total_ops();
    const double stream =
        static_cast<double>(n) * sizeof(std::uint64_t) / B / D;
    t.row({fmt_u(n), fmt(wall_native, 4), fmt(wall_em, 4), fmt_u(ops),
           fmt(cost.io_seconds(em.total().io, B), 3), fmt(ops / stream, 2),
           fmt(wall_native / n * 1e9, 1), fmt(wall_em / n * 1e9, 1)});
  }
  t.print();
  std::printf(
      "\nExpected shape (paper Fig. 3): both columns grow linearly in N"
      " (flat s/item), and ops/(N/DB) stays constant — no log factor.\n");

  // Thread-parallel host execution at fixed N: the same EM simulation run
  // with p real hosts over the simulated network with superstep
  // checkpointing, serial vs one worker per host. The counted parallel I/Os
  // are per-host maxima of the same deterministic schedule, so the run
  // check must name nothing between the two (the bench exits 1 otherwise)
  // and the ops and wire columns do not move; the speedup column is
  // wall(serial)/wall(threads) and exceeds 1 only with >= p cores to run
  // the hosts on. With --trace, the p=2 threaded run is traced (spans for
  // context/inbox/outbox I/O, compute, net rounds, commits — plus the
  // per-superstep predicted-vs-measured PDM cost in the metrics sibling).
  std::printf("\nThread-parallel hosts over the simulated network, N=2^17:\n\n");
  Table tt({"p (hosts)", "threads", "wall (s)", "parallel I/Os",
            "wire (bytes)", "rtx", "speedup"});
  {
    const std::size_t n = 1u << 17;
    auto keys = random_keys(42 + n, n);
    for (std::uint32_t p : {2u, 4u}) {
      double wall_serial = 0.0;
      cgm::RunResult run_serial;
      std::vector<std::uint64_t> sorted_serial;
      for (bool threads : {false, true}) {
        auto cfg = standard_config(v, p, D, B);
        cfg.use_threads = threads;
        cfg.net.enabled = true;
        cfg.checkpointing = true;
        const bool traced = threads && p == 2;
        if (traced) trace.arm(cfg);
        cgm::Machine em(cgm::EngineKind::kEm, checked(cfg));
        Timer tm;
        auto sorted = algo::sort_keys(em, keys);
        const double wall = tm.elapsed_s();
        const auto ops = em.total().io.total_ops();
        const auto wire = em.total().net.wire_bytes;
        const auto rtx = em.total().net.retransmissions;
        if (!threads) {
          wall_serial = wall;
          run_serial = em.total();
          sorted_serial = std::move(sorted);
          tt.row({fmt_u(p), "off", fmt(wall, 4), fmt_u(ops), fmt_u(wire),
                  fmt_u(rtx), "-"});
        } else {
          const std::string diffs =
              cgm::run_mismatches(run_serial, em.total());
          if (sorted != sorted_serial || !diffs.empty()) {
            std::fprintf(stderr,
                         "threaded run diverged at p=%u (outputs %s;"
                         " serial != threaded: %s)\n",
                         p, sorted == sorted_serial ? "equal" : "DIFFER",
                         diffs.c_str());
            return 1;
          }
          tt.row({fmt_u(p), "on", fmt(wall, 4), fmt_u(ops), fmt_u(wire),
                  fmt_u(rtx), fmt(wall_serial / wall, 2) + "x"});
        }
        if (traced) trace.write(em.engine());
      }
    }
  }
  tt.print();
  write_json_report(json_path, {{"fig3_sort_scaling", t},
                                {"fig3_threaded_hosts", tt}});
  return 0;
}
