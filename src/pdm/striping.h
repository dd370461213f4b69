// Striped ("consecutive format") layout helpers, the FIFO write batching of
// the paper's DiskWrite procedure, and the order-free greedy batching.
//
// TrackSpace / TrackRegion carve the single unbounded track space of a
// DiskArray into independent regions (context store, message matrix, user
// data areas) while keeping one DiskArray so that the parallel-op legality
// rule and the I/O statistics stay unified. A region allocates physical
// track ranges lazily in fixed-size chunks; the same range is reserved on
// every disk, so consecutive-format addressing inside a region is exactly
// the paper's footnote-2 scheme.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pdm/disk_array.h"
#include "pdm/geometry.h"
#include "util/math.h"

namespace emcgm::pdm {

/// Monotone allocator of physical track ranges, shared by all regions of one
/// DiskArray. Ranges apply to every disk simultaneously.
class TrackSpace {
 public:
  std::uint64_t acquire(std::uint64_t tracks) {
    const std::uint64_t t = next_;
    next_ += tracks;
    return t;
  }
  std::uint64_t high_water() const { return next_; }

 private:
  std::uint64_t next_ = 0;
};

/// A logically contiguous, physically chunked band of tracks.
class TrackRegion {
 public:
  TrackRegion(TrackSpace& space, std::uint64_t chunk_tracks = 1024)
      : space_(&space), chunk_tracks_(chunk_tracks) {
    EMCGM_CHECK(chunk_tracks_ >= 1);
  }

  /// Map a logical track to its physical track, growing the region to cover
  /// it if needed.
  std::uint64_t physical_track(std::uint64_t ltrack) {
    const std::uint64_t chunk = ltrack / chunk_tracks_;
    while (chunk >= chunks_.size()) {
      chunks_.push_back(space_->acquire(chunk_tracks_));
    }
    return chunks_[chunk] + ltrack % chunk_tracks_;
  }

 private:
  TrackSpace* space_;
  std::uint64_t chunk_tracks_;
  std::vector<std::uint64_t> chunks_;  // physical base track of each chunk
};

/// A consecutive-format run of blocks inside a region: the q-th block lives
/// on disk (start_disk + q) mod D at logical track
/// start_track + (start_disk + q) / D.
struct Extent {
  std::uint32_t start_disk = 0;
  std::uint64_t start_track = 0;
  std::uint64_t bytes = 0;

  std::uint64_t blocks(std::size_t block_bytes) const {
    return ceil_div(bytes, block_bytes);
  }

  BlockAddr addr(std::uint32_t D, std::uint64_t q) const {
    return consecutive_addr(D, start_disk, start_track, q);
  }
};

/// Physical address of block q of extent e inside `region`.
inline BlockAddr extent_block(TrackRegion& region, const Extent& e,
                              std::uint32_t D, std::uint64_t q) {
  BlockAddr a = e.addr(D, q);
  a.track = region.physical_track(a.track);
  return a;
}

/// Cut `data` into one write slot per block, block q at addr(q). A partial
/// last block is zero-padded in a buffer appended to `pads`, which must
/// outlive the slots.
template <typename AddrFn>
void append_block_slots(std::span<const std::byte> data, std::size_t B,
                        AddrFn&& addr, std::vector<WriteSlot>& slots,
                        std::vector<std::vector<std::byte>>& pads) {
  for (std::size_t off = 0; off < data.size(); off += B) {
    std::span<const std::byte> src = data.subspan(off);
    if (src.size() >= B) {
      src = src.first(B);
    } else {
      auto& pad = pads.emplace_back(B);
      std::copy(src.begin(), src.end(), pad.begin());
      src = pad;
    }
    slots.push_back(WriteSlot{addr(off / B), src});
  }
}

/// Bump allocator of extents within one region, tracking the global block
/// cursor so consecutive allocations continue the stripe seamlessly
/// (no disk is skipped between extents — writes across extents can share
/// parallel ops).
class StripeCursor {
 public:
  explicit StripeCursor(std::uint32_t num_disks) : D_(num_disks) {
    EMCGM_CHECK(D_ >= 1);
  }

  Extent alloc(std::uint64_t bytes, std::size_t block_bytes) {
    Extent e;
    // Global block g maps to disk g mod D, track g / D; consecutive_addr
    // reproduces this for block q of the extent given (g mod D, g / D).
    e.start_disk = static_cast<std::uint32_t>(next_block_ % D_);
    e.start_track = next_block_ / D_;
    e.bytes = bytes;
    next_block_ += ceil_div(bytes, block_bytes);
    return e;
  }

  void reset() { next_block_ = 0; }
  std::uint64_t blocks_allocated() const { return next_block_; }

  /// Rewind/replay support for checkpoint recovery: restore the cursor to a
  /// previously observed blocks_allocated() position.
  void restore(std::uint64_t blocks) { next_block_ = blocks; }

 private:
  std::uint32_t D_;
  std::uint64_t next_block_ = 0;
};

/// Write an extent's bytes in consecutive format: ceil(blocks/D) parallel
/// ops, all but the first/last fully striped. The final partial block is
/// zero-padded.
void write_striped(DiskArray& array, TrackRegion& region, const Extent& e,
                   std::span<const std::byte> data);

/// Submit the reads of an extent previously written with write_striped in
/// the same batches, without waiting, and return the last ticket. `out`
/// must hold whole blocks — e.blocks(B) * B bytes — so no tail staging is
/// needed; the bytes past e.bytes are the zero padding. Serially the reads
/// execute immediately and the returned ticket is already complete.
IoTicket read_striped_async(DiskArray& array, TrackRegion& region,
                            const Extent& e, std::span<std::byte> out);

/// read_striped_async plus wait: the extent's e.bytes bytes.
std::vector<std::byte> read_striped(DiskArray& array, TrackRegion& region,
                                    const Extent& e);

/// FIFO batched write, per the paper's DiskWrite procedure: slots are
/// serviced strictly in order; a parallel op accumulates slots until one
/// conflicts (same disk) with an earlier slot of the op or the op holds D
/// blocks. Returns the number of parallel ops issued.
std::uint64_t fifo_write(DiskArray& array, std::span<const WriteSlot> slots);

/// Order-free batched write: slots are grouped into parallel ops by pulling
/// one pending block per disk per op (round-robin over per-disk queues).
/// Achieves max_d(blocks on disk d) ops — optimal for any fixed assignment
/// of blocks to disks. Used where slots come from scattered extents whose
/// FIFO order would conflict needlessly.
std::uint64_t greedy_write(DiskArray& array, std::span<const WriteSlot> slots);

/// Order-free batched read with greedy_write's grouping, submitted without
/// waiting. Returns the last ticket (0 when slots is empty or serially).
IoTicket greedy_read_async(DiskArray& array, std::span<const ReadSlot> slots);

}  // namespace emcgm::pdm
