// Deterministic fault injection and retry policy for the PDM layer.
//
// FaultInjectingBackend decorates any StorageBackend and injects faults
// according to a seeded FaultPlan, reproducibly: the same plan over the same
// per-disk I/O sequences fires the same faults. Four fault classes:
//
//   * transient errors — IoError(kTransient) on selected block reads/writes;
//     the operation did not happen and a retry may succeed (bursts model
//     faults that persist across several attempts),
//   * torn writes     — silently persist only a prefix of the block; only a
//     checksumming reader notices, later,
//   * bit flips       — silently corrupt one payload byte at rest; ditto,
//   * fail-stop crash — after K parallel I/O operations every further
//     operation throws IoError(kCrash), modeling a machine that died
//     mid-run (recover via EmEngine::resume(); tests disarm() the injector
//     before resuming).
//
// Thread-ownership rule (DESIGN.md §12). Fault state is sharded per disk,
// exactly like the per-link streams of net::LinkFaultInjector: every
// per-event decision is a pure function fault_coin(seed, stream(class, disk),
// per-disk index), so the fault schedule of one disk depends only on that
// disk's own sequence of block reads and writes — never on how operations on
// *different* disks interleave. Under the async I/O executor
// (io_executor.h) each DiskState is written only by the one worker thread
// that owns the disk (worker w owns disks {d : d mod W == w}); with the
// executor off, everything belongs to the submitting thread. The cross-disk
// members are:
//   * armed_/crashed_ — atomic flags, the only cross-thread signals;
//   * parallel_ops_ and the crash trigger (note_parallel_op) — submitting
//     thread only;
//   * counters() — a quiesce-point merge over the per-disk shards; call it
//     only when no I/O is in flight (DiskArray::drain() first).
//
// The injector keeps StorageBackend's write_sealed/read_unsealed: it neither
// overrides nor forwards them, so every checksummed block still passes
// through its read_block/write_block and each fault coin lands on the same
// physical block read or write as without the pair.
//
// RetryPolicy is how DiskArray reacts to transient faults: bounded attempts
// with exponential backoff through an injectable sleep hook, so tests can
// observe the backoff schedule without waiting it out.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "pdm/backend.h"
#include "util/error.h"

namespace emcgm::pdm {

/// SplitMix64 finalizer: the shared deterministic "fault clock" primitive.
/// Both the disk fault injector and the network LinkFaultInjector derive
/// their per-event decisions from it, so a (seed, stream, index) triple
/// always yields the same outcome independent of call history.
std::uint64_t fault_mix(std::uint64_t x);

/// Deterministic per-event coin in [0, 1) for (seed, stream, index).
double fault_coin(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t index);

/// Deterministic fault schedule. Block-op triggers fire on the 1-based index
/// of the backend-level block read/write *on each disk* (retries re-count: a
/// retried block read is a new read op on its disk), so a trigger of N fires
/// on whichever disks reach their Nth op. 0 disables a trigger. Keying the
/// schedule per disk is what makes fault sequences independent of the
/// executor's thread schedule — see the ownership rule above.
struct FaultPlan {
  std::uint64_t seed = 1;  ///< seeds the probabilistic coins below

  std::uint64_t transient_read_at = 0;   ///< Nth per-disk read fails
  std::uint64_t transient_write_at = 0;  ///< Nth per-disk write fails
  std::uint32_t transient_burst = 1;     ///< consecutive failures per trigger
  double transient_read_prob = 0.0;      ///< per-read seeded coin in [0,1)
  double transient_write_prob = 0.0;     ///< per-write seeded coin in [0,1)

  std::uint64_t torn_write_at = 0;    ///< Nth per-disk write keeps a prefix
  std::uint64_t bitflip_write_at = 0; ///< Nth per-disk write flips one byte

  std::uint64_t crash_after_ops = 0;  ///< fail-stop after K *parallel* I/Os

  bool enabled() const {
    return transient_read_at || transient_write_at || torn_write_at ||
           bitflip_write_at || crash_after_ops || transient_read_prob > 0 ||
           transient_write_prob > 0;
  }
};

/// What the injector actually did — assertable in tests.
struct FaultCounters {
  std::uint64_t transient_reads = 0;
  std::uint64_t transient_writes = 0;
  std::uint64_t torn_writes = 0;
  std::uint64_t bitflips = 0;
  std::uint64_t crashes = 0;  ///< ops refused after the fail-stop point

  FaultCounters& operator+=(const FaultCounters& o) {
    transient_reads += o.transient_reads;
    transient_writes += o.transient_writes;
    torn_writes += o.torn_writes;
    bitflips += o.bitflips;
    crashes += o.crashes;
    return *this;
  }

  friend bool operator==(const FaultCounters&, const FaultCounters&) = default;
};

class FaultInjectingBackend final : public StorageBackend {
 public:
  FaultInjectingBackend(std::unique_ptr<StorageBackend> inner, FaultPlan plan);

  void read_block(std::uint32_t disk, std::uint64_t track,
                  std::span<std::byte> out) override;
  void write_block(std::uint32_t disk, std::uint64_t track,
                   std::span<const std::byte> data) override;
  std::uint64_t tracks_used(std::uint32_t disk) const override;
  void note_parallel_op() override;
  void sync() override { inner_->sync(); }

  /// Capacity quotas are a property of the media, not the fault model:
  /// forward to the innermost store, which enforces them.
  void set_disk_quota_bytes(std::uint64_t quota) override {
    inner_->set_disk_quota_bytes(quota);
  }

  const FaultPlan& plan() const { return plan_; }

  /// Merged view of the per-disk counter shards (canonical disk order, then
  /// the crash-trigger shard). Quiesce-point only: the per-disk shards are
  /// owned by the executor workers while I/O is in flight.
  FaultCounters counters() const;

  /// Stop injecting any further faults (the crashed "machine" is rebooted);
  /// already-persisted silent corruption of course remains on disk.
  void disarm() { armed_.store(false, std::memory_order_relaxed); }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

 private:
  /// Per-disk fault state, written only by the disk's owning thread.
  struct DiskState {
    std::uint64_t reads = 0;   ///< block reads seen on this disk
    std::uint64_t writes = 0;  ///< block writes seen on this disk
    std::uint32_t read_burst_left = 0;
    std::uint32_t write_burst_left = 0;
    FaultCounters counters;  ///< this disk's shard of counters()
  };

  bool fire_transient(std::uint64_t at, double prob, std::uint64_t stream,
                      std::uint64_t index) const;

  std::unique_ptr<StorageBackend> inner_;
  FaultPlan plan_;
  std::vector<DiskState> disks_;
  FaultCounters note_counters_;  ///< crash-trigger shard (submitting thread)
  std::atomic<bool> armed_ = true;
  std::atomic<bool> crashed_ = false;
  std::uint64_t parallel_ops_ = 0;  ///< parallel I/O ops seen (submit thread)
};

/// Bounded-retry policy with exponential backoff for transient faults.
/// Applied per block by the executor's block routine (io_executor.h).
struct RetryPolicy {
  std::uint32_t max_attempts = 1;      ///< total attempts (1 = no retry)
  std::uint64_t base_backoff_us = 0;   ///< delay before the first retry
  double backoff_multiplier = 2.0;     ///< growth per further retry
  std::uint64_t max_backoff_us = 100000;  ///< backoff ceiling

  /// Injectable clock: called with the computed delay before each retry.
  /// Null = sleep for real (std::this_thread) when the delay is non-zero.
  /// Every backoff in the disk subsystem routes through this hook — inline
  /// and on each executor worker alike — so schedule perturbation in tests
  /// is complete. With io_threads > 0 the hook is called concurrently from
  /// the worker threads and must be thread-safe.
  std::function<void(std::uint64_t delay_us)> sleep;

  /// Backoff before retry number `retry` (1-based), in microseconds.
  std::uint64_t backoff_us(std::uint32_t retry) const {
    double d = static_cast<double>(base_backoff_us);
    for (std::uint32_t i = 1; i < retry; ++i) d *= backoff_multiplier;
    const double cap = static_cast<double>(max_backoff_us);
    return static_cast<std::uint64_t>(d < cap ? d : cap);
  }
};

}  // namespace emcgm::pdm
