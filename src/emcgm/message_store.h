// On-disk storage for the messages of a compound superstep (paper Algorithm
// 2, steps (b)/(d)). A store holds the messages addressed to the virtual
// processors local to one real processor. Two layouts:
//
//  * StaggeredMatrixStore — the paper's Fig. 2 "message matrix": a fixed
//    capacity slot per (source, local destination) pair, laid out in
//    consecutive format destination-major so that reading a destination's
//    inbox is a consecutive run while the slot start positions of distinct
//    sources are staggered across the disks. Requires an a-priori bound on
//    the per-pair message size — which is exactly what balanced routing
//    (Lemma 2) provides. Supports Observation 2: with single_copy enabled
//    the same physical matrix is reused every superstep by alternating the
//    slot orientation (destination-major / source-major); a virtual
//    processor's outgoing slots then occupy precisely the physical blocks
//    its own inbox just freed.
//
//  * ChainedStore — per-message striped extents bump-allocated into a
//    double-buffered region with an in-memory O(v^2/p) directory. Handles
//    arbitrary (unbalanced) message sizes: writes are fully parallel; reads
//    pay at most one partial parallel op per message.
//
// A layout decides only where blocks live. Everything else is one pipeline
// both share: payloads are cut into block slots with a zero-padded tail
// (pdm::append_block_slots), and an inbox is read by prefetch_incoming —
// pending whole-block buffers, one greedy async read of every block, then
// wait, assemble in source order and drop in read_incoming. read_incoming
// on an inbox nobody prefetched simply prefetches it first.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cgm/config.h"
#include "cgm/message.h"
#include "pdm/disk_array.h"
#include "pdm/striping.h"
#include "util/archive.h"

namespace emcgm::em {

class MessageStore {
 public:
  virtual ~MessageStore() = default;

  /// Store messages for delivery in the next superstep. Every msg.dst must
  /// be local to this store. Blocks of the whole batch are batched into
  /// parallel ops together, so callers should pass a virtual processor's
  /// complete outbox (or a whole network arrival batch) at once.
  virtual void write_messages(std::span<const cgm::Message> msgs) = 0;

  /// Read and consume the messages addressed to `dst_global` written before
  /// the last flip(). Returns them sorted by source.
  virtual std::vector<cgm::Message> read_incoming(std::uint32_t dst_global) = 0;

  /// Start fetching `dst_global`'s inbox asynchronously (double-buffered
  /// prefetch: issued while the previous virtual processor computes); the
  /// next read_incoming(dst_global) then only waits and assembles. Consumes
  /// the directory entries exactly as read_incoming would, so each inbox is
  /// still read once. Idempotent; flip()/load() discard unconsumed
  /// prefetches after quiescing them. Safe against the current superstep's
  /// in-flight writes: they target the other buffer — or, in Observation-2
  /// single-copy mode, virtual processor j's outgoing slots occupy exactly
  /// the band-j blocks its own inbox freed, never band j+1 (and per-disk
  /// FIFO order protects any same-disk pair anyway).
  virtual void prefetch_incoming(std::uint32_t dst_global) = 0;

  /// Superstep boundary: messages written since the previous flip become
  /// readable.
  virtual void flip() = 0;

  /// Serialize the store's directory state (parities, slot lengths or
  /// extent chains) for a superstep commit record; the message bytes stay
  /// on disk. load() restores a state saved at a superstep boundary —
  /// including re-arming inboxes consumed by a half-finished superstep, so
  /// recovery can replay the superstep deterministically.
  virtual void save(WriteArchive& ar) const = 0;
  virtual void load(ReadArchive& ar) = 0;
};

/// Construction parameters shared by both layouts.
struct MessageStoreConfig {
  std::uint32_t v = 1;           ///< total virtual processors
  std::uint32_t local_base = 0;  ///< first local virtual processor
  std::uint32_t nlocal = 1;      ///< local virtual processors
  std::size_t slot_bytes = 0;    ///< staggered layout slot capacity
  bool single_copy = false;      ///< Observation 2 (staggered layout only)
};

std::unique_ptr<MessageStore> make_message_store(cgm::MsgLayout layout,
                                                 pdm::DiskArray& array,
                                                 pdm::TrackSpace& space,
                                                 const MessageStoreConfig& cfg);

}  // namespace emcgm::em
