// Machine configuration shared by both engines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/chaos_config.h"
#include "net/net_fault.h"
#include "obs/obs_config.h"
#include "pdm/backend.h"
#include "pdm/fault.h"
#include "pdm/geometry.h"
#include "util/error.h"

namespace emcgm::cgm {

/// How the EM engine lays generated messages out on the disks.
enum class MsgLayout {
  /// Paper Fig. 2: fixed-size slots per (src, dst) pair, staggered so that
  /// writes by source and reads by destination are both fully parallel.
  /// Requires a bound on the per-pair message size — guaranteed by balanced
  /// routing (Lemma 2) or by an explicit program hint.
  kStaggeredMatrix,
  /// Chained striped extents with an in-memory O(v^2) directory; handles
  /// arbitrary (unbalanced) message sizes, writes fully parallel, reads pay
  /// at most one partial op per message.
  kChained,
};

struct MachineConfig {
  std::uint32_t v = 4;  ///< virtual processors (the simulated CGM machine)
  std::uint32_t p = 1;  ///< real processors (EM-CGM target machine)

  /// Per-real-processor disk subsystem (the paper's D and B).
  pdm::DiskGeometry disk{};

  /// Async I/O worker threads per real processor's disk array
  /// (DiskArrayOptions.io_threads): 0 = the serial path, pdm::kIoThreadsAuto
  /// = min(D, hardware concurrency). With workers the engine also prefetches
  /// the next virtual processor's context and inbox during compute and
  /// drains write-behind at the superstep barrier. Outputs, IoStats,
  /// StepComm/NetStats and injected fault sequences are bit-identical across
  /// all values (DESIGN.md §12).
  std::uint32_t io_threads = 0;

  /// How many virtual processors ahead the engine prefetches contexts and
  /// inboxes while one vproc computes (async arrays only, io_threads > 0;
  /// the serial path has no pipeline to feed). 1, the default, keeps
  /// exactly the next vproc in flight; deeper windows keep the per-disk
  /// executor queues fed when a single vproc's reads cannot saturate D
  /// disks. Every depth is safe by the same Observation-2
  /// band-disjointness argument as depth 1 (prefetch targets are this
  /// superstep's read regions, never its write targets) and produces
  /// bit-identical outputs and IoStats — reads are merely *issued*
  /// earlier, reaped by the same barriers. The window is additionally
  /// bounded by M when memory_bytes > 0: at most
  /// max(1, memory_bytes / (2 * avg context bytes)) vprocs ahead, so
  /// prefetch buffers never dominate the memory the model grants.
  std::uint32_t prefetch_depth = 1;

  /// Local memory per real processor in bytes (the paper's M); 0 disables
  /// the residency check. The EM engine verifies context + inbox + outbox of
  /// the virtual processor being simulated fit in M.
  std::size_t memory_bytes = 0;

  /// Replace every application h-relation by two balanced rounds
  /// (Algorithm 1 / Lemma 2).
  bool balanced_routing = false;

  MsgLayout layout = MsgLayout::kChained;

  /// Fixed slot capacity (bytes) per (src, dst) pair for the staggered
  /// matrix layout. 0 derives a bound from the input size assuming balanced
  /// routing (2N/v^2 plus fragment-header slack, Lemma 2); a message larger
  /// than its slot is a hard error. Ignored by the chained layout.
  std::size_t staggered_slot_bytes = 0;

  /// Observation 2: reuse one physical copy of the staggered message matrix
  /// by alternating orientation between supersteps. Staggered layout and
  /// p == 1 only (validate() rejects anything else).
  bool single_copy_matrix = false;

  pdm::BackendKind backend = pdm::BackendKind::kMemory;
  std::string file_dir;  ///< directory for BackendKind::kFile

  /// Multi-node file layout: when non-empty (exactly p entries), real
  /// processor r's disks live under their own directory subtree
  /// file_roots[r] — emulating p separate machines with separate
  /// filesystems — instead of file_dir + "/proc<r>". A fail-over then
  /// remounts the dead host's subtree from the survivor, crossing a real
  /// filesystem boundary. BackendKind::kFile only.
  std::vector<std::string> file_roots{};

  /// Run real processors side by side on the engine's p workers (the
  /// caller and p - 1 threads, started at the first superstep and kept for
  /// the engine's lifetime), with each
  /// store group's step-0 batches posted into SimNetwork's per-link
  /// mailboxes as the group finishes; the host whose finish completes an
  /// endpoint pair simulates it on its own worker. With threads off, the
  /// caller is the one worker and runs the hosts in ascending order.
  /// Guaranteed bit-identical to the serial schedule — outputs, IoStats,
  /// StepComm, and NetStats alike (DESIGN.md §10).
  bool use_threads = false;

  std::uint64_t seed = 1;  ///< seed for randomized algorithm steps

  // ---- fault tolerance (EM engine) -------------------------------------
  /// Wrap every physical block in a CRC32C envelope verified on read; bit
  /// rot, torn writes and misdirected blocks surface as IoError(kCorruption)
  /// instead of silent wrong answers. Costs kEnvelopeBytes per block.
  bool checksums = false;
  /// Write a versioned commit record after every physical superstep; a run
  /// that dies mid-superstep can then continue via EmEngine::resume() from
  /// the last committed boundary. Incompatible with single_copy_matrix
  /// (Observation-2 slot reuse clobbers the inbox a replay would re-read).
  bool checkpointing = false;
  /// Retry schedule for transient block faults (applied per block inside
  /// every parallel I/O).
  pdm::RetryPolicy retry{};
  /// Deterministic fault injection applied to every real processor's disks
  /// (tests and robustness benchmarks; default: no faults).
  pdm::FaultPlan fault{};
  /// Per-real-processor disk fault plans. Empty = every processor uses
  /// `fault`; otherwise must have exactly p entries. This is how a test
  /// kills *one* machine's disks mid-superstep without touching the others.
  std::vector<pdm::FaultPlan> fault_per_proc{};
  /// Simulated-network configuration (EM engine, p > 1): framed checksummed
  /// packets over fallible links with reliable delivery, plus optional node
  /// fail-over from the last committed checkpoint.
  net::NetConfig net{};

  /// Observability (obs/): phase-scoped tracing + per-superstep metrics.
  /// Off by default; disabled runs allocate nothing on hot paths and are
  /// bit-identical — outputs and every stat counter — to a pre-obs build.
  obs::ObsConfig obs{};

  /// Chaos harness (chaos/): runtime invariant layer and per-disk capacity
  /// quotas. Off by default; a disabled run is bit-identical to a
  /// pre-chaos build.
  chaos::ChaosConfig chaos{};

  /// Reject an invalid configuration up front with a typed
  /// IoError(kConfig) — called by both engines' constructors, so a bad
  /// machine never fails deep inside a run. (IoError derives from Error;
  /// callers catching Error still catch these.)
  void validate() const {
    auto check = [](bool ok, const std::string& what) {
      if (!ok) throw IoError(IoErrorKind::kConfig, what);
    };
    check(v >= 1, "need at least one virtual processor");
    check(p >= 1 && p <= v, "need 1 <= p <= v");
    check(v % p == 0, "p must divide v (paper §2.2 exposition assumption)");
    check(!(checkpointing && single_copy_matrix),
          "checkpointing cannot replay a superstep under the Observation-2"
          " single-copy matrix (outgoing slots overwrite the inbox being"
          " replayed)");
    check(!single_copy_matrix || layout == MsgLayout::kStaggeredMatrix,
          "single_copy_matrix requires the staggered layout");
    check(!single_copy_matrix || p == 1,
          "Observation-2 single-copy mode requires p == 1 (the paper"
          " presents it for the sequential simulation)");
    check(retry.max_attempts >= 1, "retry policy needs at least one attempt");
    check(fault_per_proc.empty() || fault_per_proc.size() == p,
          "fault_per_proc must be empty or have exactly p entries");
    check(!(io_threads > 0 && disk.num_disks == 0),
          "io_threads > 0 with zero disks: there is nothing for the async"
          " executor to serve");
    check(!net.failover || net.enabled, "net.failover requires net.enabled");
    check(!net.failover || checkpointing,
          "net.failover re-assigns work from the last committed checkpoint;"
          " enable checkpointing");
    check(net.retry.max_attempts >= 1,
          "network retry policy needs at least one attempt");
    check(!net.enabled || net.mtu_bytes > 0, "network MTU must be positive");
    check(net.fault.rejoins.empty() || net.failover,
          "net.fault.rejoins re-admits processors through the fail-over"
          " machinery; enable net.failover");
    check(net.schedule == routing::ScheduleKind::kDirect || p == 1 ||
              net.enabled,
          "a non-direct collective schedule routes through the simulated"
          " network; enable net.enabled");
    check(net.schedule != routing::ScheduleKind::kCustom ||
              !net.custom_schedule_json.empty(),
          "schedule kCustom needs net.custom_schedule_json (the JSON a"
          " CommSchedule::to_json emits; see tools/schedule_check --file)");
    check(net.custom_schedule_json.empty() ||
              net.schedule == routing::ScheduleKind::kCustom,
          "net.custom_schedule_json is set but net.schedule is not kCustom;"
          " refusing to silently ignore the supplied schedule");
    check(prefetch_depth >= 1,
          "prefetch_depth == 0 would starve the pipeline; use 1 for the"
          " minimal (legacy) one-ahead window");
    for (const net::NodeEvent& e : net.fault.fail_stops) {
      check(e.proc < p, "fail_stops names a processor outside 0..p-1");
    }
    for (const net::NodeEvent& e : net.fault.rejoins) {
      check(e.proc < p, "rejoins names a processor outside 0..p-1");
      bool killed_before = false;
      for (const net::NodeEvent& k : net.fault.fail_stops) {
        killed_before = killed_before || (k.proc == e.proc && k.step < e.step);
      }
      check(killed_before,
            "rejoin_at_step scheduled for a node never killed before that"
            " step: a reboot needs a preceding fail-stop");
    }
    check(chaos.disk_quota_per_proc.empty() ||
              chaos.disk_quota_per_proc.size() == p,
          "chaos.disk_quota_per_proc must be empty or have exactly p entries");
    check(!chaos.invariants || chaos.watchdog_steps >= 1,
          "chaos.watchdog_steps == 0 would trip the no-progress watchdog on"
          " the first superstep; need >= 1");
    check(file_roots.empty() || file_roots.size() == p,
          "file_roots must be empty or have exactly p entries");
    check(file_roots.empty() || backend == pdm::BackendKind::kFile,
          "file_roots requires BackendKind::kFile");
    disk.validate();
  }
};

}  // namespace emcgm::cgm
