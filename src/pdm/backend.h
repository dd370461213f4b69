// Storage backends for the simulated disk array.
//
// MemoryBackend keeps every written track in RAM — the default for tests and
// benchmarks, where only the I/O *counts* matter. FileBackend stores one
// flat file per simulated disk and performs real pread/pwrite at
// track-aligned offsets, demonstrating that the same code path drives real
// external storage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pdm/geometry.h"

namespace emcgm::pdm {

/// Abstract per-disk block store. Implementations must allow sparse writes:
/// any track may be written first, and a track never written reads as zero
/// bytes. Space is counted by high-water mark: writing track t counts every
/// track below t as used, whether the implementation stores those tracks or
/// not. With checksums on, blocks move through write_sealed/read_unsealed,
/// which store and verify exactly the envelopes (checksum.h) that
/// write_block and read_block would; a backend that keeps its tracks in
/// memory overrides the pair to seal and verify there.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Copy one block from (disk, track) into out (exactly block_bytes long).
  /// Reading a never-written track yields zero bytes.
  virtual void read_block(std::uint32_t disk, std::uint64_t track,
                          std::span<std::byte> out) = 0;

  /// Copy one block (exactly block_bytes long) to (disk, track).
  virtual void write_block(std::uint32_t disk, std::uint64_t track,
                           std::span<const std::byte> data) = 0;

  /// Seal `payload` (block_bytes - kEnvelopeBytes long) for (disk, track)
  /// and store the envelope there. Default: seal_block into `scratch`
  /// (block_bytes long), then write_block.
  virtual void write_sealed(std::uint32_t disk, std::uint64_t track,
                            std::span<const std::byte> payload,
                            std::span<std::byte> scratch);

  /// Verify the envelope at (disk, track) and copy its payload into `out`
  /// (block_bytes - kEnvelopeBytes long), throwing like unseal_block; a
  /// never-written track reads as zeros. Default: read_block into
  /// `scratch` (block_bytes long), then unseal_block.
  virtual void read_unsealed(std::uint32_t disk, std::uint64_t track,
                             std::span<std::byte> out,
                             std::span<std::byte> scratch);

  /// High-water mark of `disk`: one past the highest track ever written
  /// (capacity usage reporting; unwritten tracks below it count).
  virtual std::uint64_t tracks_used(std::uint32_t disk) const = 0;

  /// Called by DiskArray once per parallel I/O operation, before its block
  /// transfers. Default: no-op. FaultInjectingBackend counts these to model
  /// fail-stop crashes "after K parallel I/Os".
  virtual void note_parallel_op() {}

  /// Force every completed write down to durable storage. Default: no-op
  /// (MemoryBackend has no durability to speak of). FileBackend fsyncs each
  /// disk file; commit() calls this before declaring a boundary committed,
  /// so a committed checkpoint survives the host, not just the process.
  virtual void sync() {}

  /// Per-disk capacity quota in bytes (0 = unlimited, the default). A write
  /// that would raise a disk's high-water mark past the quota throws
  /// IoError(kNoSpace) before touching the media; writes below the
  /// high-water mark always succeed, so lowering the quota under live
  /// data never bricks it — and raising (or clearing) the quota makes the
  /// refused writes succeed verbatim, which is what lets a checkpointed run
  /// resume bit-identically after space is freed. Quotas count the bytes on
  /// the media, i.e. the *physical* block size (checksum envelope included).
  /// Decorators (FaultInjectingBackend) forward to the innermost store.
  virtual void set_disk_quota_bytes(std::uint64_t quota) { quota_ = quota; }

  const DiskGeometry& geometry() const { return geom_; }

 protected:
  explicit StorageBackend(const DiskGeometry& geom) : geom_(geom) {
    geom_.validate();
  }

  /// Quota check for write paths: throws IoError(kNoSpace) when writing
  /// `track` would raise the high-water mark of `disk` beyond the quota.
  void ensure_space(std::uint32_t disk, std::uint64_t track) const;

  DiskGeometry geom_;

 private:
  std::uint64_t quota_ = 0;  ///< per-disk byte quota; 0 = unlimited
};

/// In-RAM backing store. Each track is allocated on its first write and
/// overwritten in place after that, so the gaps that region layouts leave
/// between written tracks cost one null pointer each. write_sealed seals
/// straight into the track and read_unsealed verifies straight out of it,
/// so a checksummed block crosses memory once each way; `scratch` goes
/// unused. Disks share no state: executor workers that own disjoint disks
/// need no lock.
class MemoryBackend final : public StorageBackend {
 public:
  explicit MemoryBackend(const DiskGeometry& geom);

  void read_block(std::uint32_t disk, std::uint64_t track,
                  std::span<std::byte> out) override;
  void write_block(std::uint32_t disk, std::uint64_t track,
                   std::span<const std::byte> data) override;
  void write_sealed(std::uint32_t disk, std::uint64_t track,
                    std::span<const std::byte> payload,
                    std::span<std::byte> scratch) override;
  void read_unsealed(std::uint32_t disk, std::uint64_t track,
                     std::span<std::byte> out,
                     std::span<std::byte> scratch) override;
  std::uint64_t tracks_used(std::uint32_t disk) const override;

 private:
  /// Track memory to overwrite: checks the quota and allocates the track on
  /// its first write.
  std::span<std::byte> track_for_write(std::uint32_t disk,
                                       std::uint64_t track);
  /// The track's memory, or an empty span if it was never written.
  std::span<const std::byte> track_for_read(std::uint32_t disk,
                                            std::uint64_t track) const;

  // disks_[d][t] is track t of disk d (block_bytes long), or null if never
  // written; disks_[d].size() is the high-water mark.
  std::vector<std::vector<std::unique_ptr<std::byte[]>>> disks_;
};

/// One flat file per disk under a caller-supplied directory. Files are
/// created on first use and removed in the destructor.
class FileBackend final : public StorageBackend {
 public:
  FileBackend(const DiskGeometry& geom, std::string directory);
  ~FileBackend() override;

  FileBackend(const FileBackend&) = delete;
  FileBackend& operator=(const FileBackend&) = delete;

  void read_block(std::uint32_t disk, std::uint64_t track,
                  std::span<std::byte> out) override;
  void write_block(std::uint32_t disk, std::uint64_t track,
                   std::span<const std::byte> data) override;
  std::uint64_t tracks_used(std::uint32_t disk) const override;
  void sync() override;

  const std::string& directory() const { return dir_; }

 private:
  std::string dir_;
  std::vector<int> fds_;          // one file descriptor per disk
  std::vector<std::string> paths_;
  int dir_fd_ = -1;               // for fsyncing the directory entries
};

/// Backend choice for configuration structs.
enum class BackendKind { kMemory, kFile };

std::unique_ptr<StorageBackend> make_backend(BackendKind kind,
                                             const DiskGeometry& geom,
                                             const std::string& file_dir = "");

}  // namespace emcgm::pdm
