// On-disk storage for virtual-processor contexts (paper Algorithm 2, steps
// (a)/(e)): each compound superstep reads every local virtual processor's
// context from disk and writes the changed context back, in consecutive
// (striped) format so both directions use all D disks.
//
// Context sizes may change between supersteps (algorithm state grows and
// shrinks), so instead of fixed slots the store bump-allocates a fresh
// striped extent per context per superstep into the inactive one of two
// regions and flips regions at superstep end (space: twice the total
// context size, the paper's Observation-2 discussion notwithstanding —
// contexts, unlike messages, are read and rewritten by the *same* virtual
// processor, so a freed-slot reuse scheme would need fixed sizes).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "pdm/disk_array.h"
#include "pdm/striping.h"
#include "util/archive.h"

namespace emcgm::em {

/// std::allocator whose value-less construct() default-initializes, so
/// resizing a vector of bytes leaves the new bytes unwritten: for buffers a
/// read overwrites in full.
template <typename T>
struct UninitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

/// A context as read back from disk.
using ContextBlob = std::vector<std::byte, UninitAllocator<std::byte>>;

class ContextStore {
 public:
  /// nlocal = number of virtual processors simulated on this real processor.
  ContextStore(pdm::DiskArray& array, pdm::TrackSpace& space,
               std::uint32_t nlocal);
  /// Waits for prefetches still in flight (a pass that threw can leave
  /// some): their reads target buffers this store owns.
  ~ContextStore();

  ContextStore(const ContextStore&) = delete;
  ContextStore& operator=(const ContextStore&) = delete;

  /// Write the context of local virtual processor `local` into the inactive
  /// region (the one that becomes readable after the next flip()).
  void write(std::uint32_t local, std::span<const std::byte> context);

  /// Read local virtual processor `local`'s context from the active region:
  /// prefetch(local) if it is not in flight yet, then wait for it.
  ContextBlob read(std::uint32_t local);

  /// Start an async read of `local`'s context (double-buffered prefetch:
  /// issued while the previous virtual processor computes). Correct while
  /// the current superstep's writes are in flight because those target the
  /// *inactive* region — disjoint extents. Serial arrays execute the read
  /// immediately; read(local) then just hands the buffer over. Idempotent.
  void prefetch(std::uint32_t local);

  /// Size of the context that read(local) would return, without I/O.
  std::size_t context_bytes(std::uint32_t local) const;

  /// Superstep boundary: the freshly written region becomes readable.
  /// Every local virtual processor must have been written exactly once
  /// since the previous flip.
  void flip();

  /// Serialize the directory state (active side, cursors, extents) for a
  /// superstep commit record. The block data itself stays on disk.
  void save(WriteArchive& ar) const;

  /// Restore a directory state saved at a superstep boundary. The on-disk
  /// blocks referenced by the saved extents must still be intact — true for
  /// any crash after the corresponding commit, because later supersteps only
  /// write into the *other* region.
  void load(ReadArchive& ar);

 private:
  struct Region {
    pdm::TrackRegion tracks;
    pdm::StripeCursor cursor;
    std::vector<std::optional<pdm::Extent>> extents;  // per local vproc

    Region(pdm::TrackSpace& space, std::uint32_t nlocal,
           std::uint32_t num_disks)
        : tracks(space), cursor(num_disks), extents(nlocal) {}
  };

  /// An in-flight prefetch: whole-block buffer + completion ticket.
  struct Prefetched {
    pdm::IoTicket ticket = 0;
    ContextBlob buf;
  };

  void drop_prefetches();

  pdm::DiskArray& array_;
  std::uint32_t nlocal_;
  Region regions_[2];
  int active_ = 0;  ///< readable region; 1 - active_ is being written
  std::uint64_t epoch_ = 0;  ///< flips since construction; in save()'s record
  std::vector<std::optional<Prefetched>> prefetched_;  ///< per local vproc
};

}  // namespace emcgm::em
