// Private to the EmEngine implementation, which is split by decision:
// em_engine.cpp runs the superstep (Algorithm 2), em_delivery.cpp moves its
// messages (Algorithm 3), em_membership.cpp commits boundaries and handles
// fail-over and rejoin. This header holds the state the three files share;
// nothing outside them includes it.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "emcgm/em_engine.h"
#include "obs/trace.h"
#include "pdm/striping.h"
#include "util/error.h"
#include "util/timer.h"

namespace emcgm::em {

constexpr std::uint32_t kNoHost = 0xFFFFFFFF;

// Internal control flow only (never escapes the engine): one or more real
// processors were found dead — by a fail-stop crash of their own disks, an
// exhausted network link, or the heartbeat detector. The superstep loop
// catches it and runs the fail-over procedure (or rethrows `cause` when
// fail-over cannot help).
struct DeadProcsError {
  std::vector<std::uint32_t> procs;
  std::exception_ptr cause;
};

// One barrier pass over the p store groups: fn(g) for every group g in
// order. A fail-stop crash (IoError kCrash) out of group g's own disks means
// machine g died; it is collected and the pass goes on, so one machine's
// death does not abort the other groups' work. Anything else is not a death
// and propagates as it is. After the pass the casualties go to the
// fail-over path (DeadProcsError) or, with fail-over off, the first crash
// (in group order) is rethrown.
template <typename Fn>
void for_each_group(std::uint32_t p, bool failover, Fn&& fn) {
  std::vector<std::uint32_t> dead;
  std::exception_ptr first;
  for (std::uint32_t g = 0; g < p; ++g) {
    try {
      fn(g);
    } catch (const IoError& e) {
      if (e.kind() != IoErrorKind::kCrash) throw;
      dead.push_back(g);
      if (!first) first = std::current_exception();
    }
  }
  if (dead.empty()) return;
  if (failover) throw DeadProcsError{std::move(dead), first};
  std::rethrow_exception(first);
}

struct EmEngine::RealProc {
  std::unique_ptr<pdm::DiskArray> disks;
  pdm::TrackSpace space;
  std::unique_ptr<ContextStore> contexts;
  std::unique_ptr<MessageStore> messages;

  // Two alternating on-disk slots for superstep commit records, so a crash
  // while writing record k+1 leaves record k intact.
  struct CkptSlot {
    pdm::TrackRegion tracks;
    pdm::StripeCursor cursor;
    pdm::Extent extent{};

    CkptSlot(pdm::TrackSpace& space, std::uint32_t D)
        : tracks(space, 64), cursor(D) {}
  };
  std::optional<CkptSlot> ckpt[2];

  RealProc(const cgm::MachineConfig& cfg, std::uint32_t index,
           obs::Tracer* tracer) {
    std::string dir;
    if (cfg.backend == pdm::BackendKind::kFile) {
      // Multi-node layout: each real processor's disks under its own root
      // (separate filesystems); otherwise subdirectories of one file_dir.
      dir = cfg.file_roots.empty()
                ? cfg.file_dir + "/proc" + std::to_string(index)
                : cfg.file_roots[index];
    }
    pdm::DiskArrayOptions opts;
    opts.checksums = cfg.checksums;
    opts.retry = cfg.retry;
    opts.io_threads = cfg.io_threads;
    if (tracer) {
      opts.on_queue_depth = [tracer, index](std::size_t depth) {
        tracer->record_queue_depth(index, depth);
      };
    }
    const pdm::FaultPlan& plan = cfg.fault_per_proc.empty()
                                     ? cfg.fault
                                     : cfg.fault_per_proc[index];
    disks = pdm::make_disk_array(cfg.backend, cfg.disk, dir, opts, plan);
    // Capacity quota (chaos harness): applied at the innermost backend, so
    // a write that would grow any of this machine's disks past the quota
    // raises a typed IoError(kNoSpace).
    const std::uint64_t quota = cfg.chaos.disk_quota_per_proc.empty()
                                    ? 0
                                    : cfg.chaos.disk_quota_per_proc[index];
    if (quota != 0) disks->set_quota_bytes(quota);
    ckpt[0].emplace(space, cfg.disk.num_disks);
    ckpt[1].emplace(space, cfg.disk.num_disks);
  }
};

// One store group's work during a superstep. A store group is
// indexed by the real processor that originally owned it; after a fail-over
// several groups can be driven by the same surviving host, but each group
// still reads and writes its own stores — which is why the outcome (and the
// final output) is independent of who executes it.
struct EmEngine::ProcOutcome {
  // outgoing physical messages grouped by owning store group
  std::vector<std::vector<cgm::Message>> by_owner;
  std::exception_ptr error;
};

// The cooperative run between start() (or resume()'s restore) and
// finish(). A scheduler can put the run down at any superstep barrier (by
// not calling step()) and pick it up arbitrarily later — between step()
// calls the engine is quiescent and this struct plus the committed boundary
// is the run's entire volatile state.
struct EmEngine::RunState {
  const cgm::Program* program = nullptr;
  Timer timer;  ///< whole-run wall clock (result.wall_s)
  cgm::RunResult result;

  cgm::Superstep at;
  std::vector<char> done;  ///< per vproc: done() after the last compute

  pdm::IoStats io_before;       ///< disk stats at start (delta -> result.io)
  net::NetStats net_before;     ///< wire stats at start (delta -> result.net)
  pdm::IoStats trace_mark;      ///< per-superstep I/O delta cursor
  net::NetStats net_step_mark;  ///< per-superstep wire delta cursor
  Timer step_timer;

  // No-progress watchdog (cfg.chaos.invariants): the high-water mark of
  // `at`; see step().
  std::optional<cgm::Superstep> wd_high;
  std::uint32_t wd_stall = 0;
};

}  // namespace emcgm::em
