// Parallel Disk Model substrate: addressing, op legality, statistics,
// striping, batching disciplines, regions, backends, cost model.
//
// Every test that exercises a DiskArray runs against both storage backends
// (BackendSuite below): the in-memory one and the file-per-disk one, so the
// file path is held to the same contract — including sparse reads, statistics
// and the checksummed-envelope geometry.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <tuple>

#include "pdm/backend.h"
#include "scoped_temp_dir.h"
#include "pdm/checksum.h"
#include "pdm/cost_model.h"
#include "pdm/disk_array.h"
#include "pdm/striping.h"
#include "util/rng.h"

using namespace emcgm;
using namespace emcgm::pdm;

namespace {

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 31 + seed) & 0xFF);
  }
  return v;
}

/// Write track 9 and then track 3 of `disk`: every track below the
/// high-water mark that was not written (0-2, 4-8) must read zero, and the
/// backend must report the high-water mark, 10, as used.
void expect_holes_read_zero(DiskArray& a, std::uint32_t disk) {
  const auto data = pattern(a.block_bytes(), 9);
  for (const std::uint64_t t : {9u, 3u}) {
    WriteSlot w{BlockAddr{disk, t}, data};
    a.parallel_write(std::span<const WriteSlot>(&w, 1));
  }
  const std::vector<std::byte> zeros(a.block_bytes());
  std::vector<std::byte> out(a.block_bytes());
  for (std::uint64_t t = 0; t < 10; ++t) {
    std::fill(out.begin(), out.end(), std::byte{0xAB});
    ReadSlot r{BlockAddr{disk, t}, out};
    a.parallel_read(std::span<const ReadSlot>(&r, 1));
    EXPECT_EQ(out, t == 3 || t == 9 ? data : zeros) << "track " << t;
  }
  a.drain();
  EXPECT_EQ(a.backend().tracks_used(disk), 10u);
}

}  // namespace

/// DiskArray contract tests, instantiated per (storage backend, io_threads):
/// the async executor must satisfy the same contract — op legality, stats at
/// quiesce points, striping round-trips — as the serial path, on both
/// backends. io_threads above D is clamped, so "4 workers" on a 2-disk array
/// exercises the clamp too.
class BackendSuite
    : public ::testing::TestWithParam<std::tuple<BackendKind, std::uint32_t>> {
 protected:
  std::uint32_t io_threads() const { return std::get<1>(GetParam()); }

  std::unique_ptr<DiskArray> make(std::uint32_t D, std::size_t B,
                                  DiskArrayOptions opts = {}) {
    std::string dir;
    if (std::get<0>(GetParam()) == BackendKind::kFile) {
      // Unique per array (sibling parameterizations of this binary run
      // concurrently under ctest -j) and reaped even if an assertion
      // aborts the process: see scoped_temp_dir.h.
      dirs_.emplace_back("pdm_param");
      dir = dirs_.back().path();
    }
    opts.io_threads = io_threads();
    return make_disk_array(std::get<0>(GetParam()), DiskGeometry{D, B}, dir,
                           opts);
  }

 private:
  std::vector<test::ScopedTempDir> dirs_;
};

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendSuite,
    ::testing::Combine(::testing::Values(BackendKind::kMemory,
                                         BackendKind::kFile),
                       ::testing::Values(0u, 2u, 4u)),
    [](const ::testing::TestParamInfo<std::tuple<BackendKind, std::uint32_t>>&
           info) {
      const char* b = std::get<0>(info.param) == BackendKind::kMemory
                          ? "Memory"
                          : "File";
      return std::string(b) + "T" + std::to_string(std::get<1>(info.param));
    });

TEST(Geometry, ConsecutiveAddressing) {
  // Footnote 2: block q of a run starting at disk d, track T0.
  EXPECT_EQ(consecutive_addr(4, 0, 0, 0), (BlockAddr{0, 0}));
  EXPECT_EQ(consecutive_addr(4, 0, 0, 3), (BlockAddr{3, 0}));
  EXPECT_EQ(consecutive_addr(4, 0, 0, 4), (BlockAddr{0, 1}));
  EXPECT_EQ(consecutive_addr(4, 2, 5, 3), (BlockAddr{1, 6}));
  EXPECT_EQ(consecutive_addr(1, 0, 7, 9), (BlockAddr{0, 16}));
}

TEST_P(BackendSuite, RoundTripSingleBlock) {
  auto a = make(3, 64);
  auto data = pattern(64, 1);
  WriteSlot w{BlockAddr{1, 5}, data};
  a->parallel_write(std::span<const WriteSlot>(&w, 1));
  std::vector<std::byte> out(64);
  ReadSlot r{BlockAddr{1, 5}, out};
  a->parallel_read(std::span<const ReadSlot>(&r, 1));
  EXPECT_EQ(out, data);
}

TEST_P(BackendSuite, RejectsSameDiskTwiceInOneOp) {
  auto a = make(4, 64);
  auto d1 = pattern(64, 1), d2 = pattern(64, 2);
  std::vector<WriteSlot> slots{{BlockAddr{2, 0}, d1}, {BlockAddr{2, 1}, d2}};
  EXPECT_THROW(a->parallel_write(slots), Error);
}

TEST_P(BackendSuite, RejectsMoreThanDBlocks) {
  auto a = make(2, 64);
  auto d = pattern(64, 3);
  std::vector<WriteSlot> slots{
      {BlockAddr{0, 0}, d}, {BlockAddr{1, 0}, d}, {BlockAddr{0, 1}, d}};
  EXPECT_THROW(a->parallel_write(slots), Error);
}

TEST_P(BackendSuite, RejectsOutOfRangeDisk) {
  auto a = make(2, 64);
  auto d = pattern(64, 4);
  WriteSlot w{BlockAddr{7, 0}, d};
  EXPECT_THROW(a->parallel_write(std::span<const WriteSlot>(&w, 1)), Error);
}

TEST_P(BackendSuite, CountsOpsAndBlocks) {
  auto a = make(4, 64);
  auto d = pattern(64, 5);
  std::vector<WriteSlot> full{{BlockAddr{0, 0}, d},
                              {BlockAddr{1, 0}, d},
                              {BlockAddr{2, 0}, d},
                              {BlockAddr{3, 0}, d}};
  a->parallel_write(full);
  WriteSlot one{BlockAddr{2, 9}, d};
  a->parallel_write(std::span<const WriteSlot>(&one, 1));
  a->drain();  // stats are exact at quiesce points (write-behind)
  EXPECT_EQ(a->stats().write_ops, 2u);
  EXPECT_EQ(a->stats().blocks_written, 5u);
  EXPECT_EQ(a->stats().full_stripe_ops, 1u);
  EXPECT_DOUBLE_EQ(a->stats().parallel_efficiency(4), 5.0 / 8.0);
}

TEST_P(BackendSuite, UnwrittenTracksReadZero) {
  auto a = make(2, 32);
  std::vector<std::byte> out(32, std::byte{0xAB});
  ReadSlot r{BlockAddr{0, 99}, out};
  a->parallel_read(std::span<const ReadSlot>(&r, 1));
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
  expect_holes_read_zero(*a, 1);
}

TEST_P(BackendSuite, ChecksummedRoundTrip) {
  // With checksums on, the backend stores block_bytes + envelope while the
  // DiskArray still presents the logical geometry to callers.
  DiskArrayOptions opts;
  opts.checksums = true;
  auto a = make(3, 128, opts);
  EXPECT_EQ(a->block_bytes(), 128u);  // logical view
  auto data = pattern(128, 6);
  WriteSlot w{BlockAddr{2, 7}, data};
  a->parallel_write(std::span<const WriteSlot>(&w, 1));
  a->drain();
  // The stored block is the envelope seal_block makes, whether the backend
  // sealed in place (MemoryBackend) or the executor's scratch path did.
  std::vector<std::byte> phys(a->backend().geometry().block_bytes);
  a->backend().read_block(2, 7, phys);
  std::vector<std::byte> sealed(phys.size());
  seal_block(2, 7, data, sealed);
  EXPECT_EQ(phys, sealed);
  std::vector<std::byte> out(128);
  ReadSlot r{BlockAddr{2, 7}, out};
  a->parallel_read(std::span<const ReadSlot>(&r, 1));
  EXPECT_EQ(out, data);
  // Sparse tracks still read zero through the unseal path.
  ReadSlot r2{BlockAddr{0, 40}, out};
  a->parallel_read(std::span<const ReadSlot>(&r2, 1));
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
  expect_holes_read_zero(*a, 1);
  EXPECT_EQ(a->stats().corruptions, 0u);
  // One payload bit flipped at rest fails the verify, in place on
  // MemoryBackend as on FileBackend's scratch path.
  phys[kEnvelopeBytes + 5] ^= std::byte{0x10};
  a->backend().write_block(2, 7, phys);
  try {
    a->parallel_read(std::span<const ReadSlot>(&r, 1));
    ADD_FAILURE() << "flipped payload bit not detected";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kCorruption) << e.what();
  }
  EXPECT_EQ(a->stats().corruptions, 1u);
}

TEST_P(BackendSuite, StripingExtentRoundTripAndOpCount) {
  auto a = make(4, 64);
  TrackSpace space;
  TrackRegion region(space);
  StripeCursor cursor(4);
  // 10 blocks => ceil(10/4) = 3 parallel writes, 3 parallel reads.
  auto data = pattern(10 * 64 - 13, 6);  // partial tail block
  Extent e = cursor.alloc(data.size(), 64);
  write_striped(*a, region, e, data);
  a->drain();
  EXPECT_EQ(a->stats().write_ops, 3u);
  const auto out = read_striped(*a, region, e);
  EXPECT_EQ(a->stats().read_ops, 3u);
  EXPECT_EQ(out, data);
}

TEST_P(BackendSuite, FifoWriteCutsOnConflict) {
  auto a = make(4, 64);
  auto d = pattern(64, 7);
  // Disks 0,1,0: FIFO must cut before the second disk-0 block.
  std::vector<WriteSlot> slots{{BlockAddr{0, 0}, d},
                               {BlockAddr{1, 0}, d},
                               {BlockAddr{0, 1}, d}};
  EXPECT_EQ(fifo_write(*a, slots), 2u);
  a->drain();
  EXPECT_EQ(a->stats().write_ops, 2u);
}

TEST_P(BackendSuite, GreedyBatchingReachesPerDiskOptimum) {
  auto a = make(4, 64);
  auto d = pattern(64, 8);
  // 5 blocks on disk 2, 1 on each other: optimum = 5 ops; FIFO in this
  // adversarial order would also produce 5 here, but greedy is provably
  // max_d(count) for any order.
  std::vector<WriteSlot> slots;
  for (std::uint64_t t = 0; t < 5; ++t) {
    slots.push_back(WriteSlot{BlockAddr{2, t}, d});
  }
  slots.push_back(WriteSlot{BlockAddr{0, 0}, d});
  slots.push_back(WriteSlot{BlockAddr{1, 0}, d});
  slots.push_back(WriteSlot{BlockAddr{3, 0}, d});
  EXPECT_EQ(greedy_write(*a, slots), 5u);
}

TEST(Striping, ConsecutiveExtentsContinueTheStripe) {
  StripeCursor cursor(4);
  Extent e1 = cursor.alloc(3 * 64, 64);  // blocks 0..2
  Extent e2 = cursor.alloc(2 * 64, 64);  // blocks 3..4
  EXPECT_EQ(e1.addr(4, 0).disk, 0u);
  EXPECT_EQ(e2.addr(4, 0).disk, 3u);  // continues at global block 3
  EXPECT_EQ(e2.addr(4, 1).disk, 0u);
  EXPECT_EQ(e2.addr(4, 1).track, 1u);
}

TEST(Striping, CursorRestoreRewindsAllocation) {
  StripeCursor cursor(4);
  (void)cursor.alloc(3 * 64, 64);
  const std::uint64_t mark = cursor.blocks_allocated();
  Extent e2 = cursor.alloc(5 * 64, 64);
  cursor.restore(mark);
  // Re-allocating after restore hands out the same extent again.
  Extent e3 = cursor.alloc(5 * 64, 64);
  EXPECT_EQ(e3.start_disk, e2.start_disk);
  EXPECT_EQ(e3.start_track, e2.start_track);
  EXPECT_EQ(e3.bytes, e2.bytes);
}

TEST(Striping, RegionsDoNotOverlap) {
  TrackSpace space;
  TrackRegion r1(space, 16), r2(space, 16);
  // Interleaved growth must still hand out disjoint physical tracks.
  std::vector<std::uint64_t> seen;
  for (int i = 0; i < 40; ++i) {
    seen.push_back(r1.physical_track(i));
    seen.push_back(r2.physical_track(i));
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end());
}

TEST(FileBackend, RoundTripAndCleanup) {
  test::ScopedTempDir scratch("backend");
  const std::string& dir = scratch.path();
  {
    DiskArray a(std::make_unique<FileBackend>(DiskGeometry{2, 128}, dir));
    auto data = pattern(128, 9);
    WriteSlot w{BlockAddr{1, 3}, data};
    a.parallel_write(std::span<const WriteSlot>(&w, 1));
    std::vector<std::byte> out(128);
    ReadSlot r{BlockAddr{1, 3}, out};
    a.parallel_read(std::span<const ReadSlot>(&r, 1));
    EXPECT_EQ(out, data);
    // Sparse read past EOF yields zeros.
    ReadSlot r2{BlockAddr{0, 50}, out};
    a.parallel_read(std::span<const ReadSlot>(&r2, 1));
    for (auto b : out) EXPECT_EQ(b, std::byte{0});
    EXPECT_TRUE(std::filesystem::exists(dir + "/disk0.bin"));
  }
  // Destructor unlinks the disk files.
  EXPECT_FALSE(std::filesystem::exists(dir + "/disk0.bin"));
}

TEST(CostModel, MonotoneAndSaturating) {
  DiskCostModel m;
  // Effective throughput grows with block size and approaches the media
  // rate (Fig. 8 shape).
  double prev = 0;
  for (std::size_t b = 512; b <= (1u << 24); b *= 4) {
    const double eff = m.effective_mb_s(b);
    EXPECT_GT(eff, prev);
    EXPECT_LT(eff, m.bandwidth_mb_s);
    prev = eff;
  }
  EXPECT_GT(m.effective_mb_s(1u << 24), 0.9 * m.bandwidth_mb_s * 0.9);
}

TEST(CostModel, EfficiencyKneeNearPaperBlockSize) {
  // The paper fixes B at ~10^3 items (~8 KB for 8-byte items); with
  // 1990s-era constants the 50% efficiency point sits in the 100 KB range
  // and 8 KB blocks are deep in the positioning-dominated regime — which
  // is exactly why blocked, fully-parallel access matters.
  DiskCostModel m;
  const std::size_t half = m.block_bytes_for_efficiency(0.5);
  EXPECT_GT(half, 100u * 1024);
  EXPECT_LT(half, 1024u * 1024);
}

TEST(CostModel, IoSecondsScalesWithOps) {
  DiskCostModel m;
  IoStats s;
  s.read_ops = 10;
  s.write_ops = 5;
  EXPECT_DOUBLE_EQ(m.io_seconds(s, 4096), 15 * m.op_seconds(4096));
}
