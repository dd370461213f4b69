// I/O accounting in PDM units: the cost measure of the model is the number
// of parallel I/O operations, each moving up to D blocks (one per disk).
//
// Thread-safety discipline (DESIGN.md §10/§11): every IoStats instance is
// *shard-merged*. Within a phase, a DiskArray's live counters are written
// only by whichever worker runs its host's task (host shard h belongs to
// that worker; with use_threads off the caller is the one worker). Cross-
// host aggregates — RunResult::io, io_per_step, the metrics registry's
// per-superstep rows, trace-span I/O deltas — are *barrier-owned*:
// computed only by the caller at superstep barriers by summing/differencing
// the host shards in canonical host order. The consequence, asserted by
// ObsThreaded.ShardCountersBarrierInvariant, is that every counter here is
// bit-identical with threads on or off.
#pragma once

#include <cstdint>

namespace emcgm::pdm {

struct IoStats {
  std::uint64_t read_ops = 0;        ///< parallel read operations
  std::uint64_t write_ops = 0;       ///< parallel write operations
  std::uint64_t blocks_read = 0;     ///< total blocks moved by reads
  std::uint64_t blocks_written = 0;  ///< total blocks moved by writes
  std::uint64_t full_stripe_ops = 0; ///< ops that used all D disks
  std::uint64_t retries = 0;         ///< transient-fault block retries
  std::uint64_t corruptions = 0;     ///< checksum/tag mismatches detected
  std::uint64_t fsyncs = 0;          ///< durability barriers (DiskArray::sync)

  std::uint64_t total_ops() const { return read_ops + write_ops; }
  std::uint64_t total_blocks() const { return blocks_read + blocks_written; }

  /// Fraction of ops that kept every disk busy; 1.0 = fully parallel I/O.
  double parallel_efficiency(std::uint32_t num_disks) const {
    const auto ops = total_ops();
    if (ops == 0) return 1.0;
    return static_cast<double>(total_blocks()) /
           (static_cast<double>(ops) * num_disks);
  }

  IoStats& operator+=(const IoStats& o) {
    read_ops += o.read_ops;
    write_ops += o.write_ops;
    blocks_read += o.blocks_read;
    blocks_written += o.blocks_written;
    full_stripe_ops += o.full_stripe_ops;
    retries += o.retries;
    corruptions += o.corruptions;
    fsyncs += o.fsyncs;
    return *this;
  }

  IoStats& operator-=(const IoStats& o) {
    read_ops -= o.read_ops;
    write_ops -= o.write_ops;
    blocks_read -= o.blocks_read;
    blocks_written -= o.blocks_written;
    full_stripe_ops -= o.full_stripe_ops;
    retries -= o.retries;
    corruptions -= o.corruptions;
    fsyncs -= o.fsyncs;
    return *this;
  }

  friend IoStats operator+(IoStats a, const IoStats& b) { return a += b; }
  friend IoStats operator-(IoStats a, const IoStats& b) { return a -= b; }
  friend bool operator==(const IoStats&, const IoStats&) = default;
};

}  // namespace emcgm::pdm
