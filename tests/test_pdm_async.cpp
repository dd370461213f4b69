// Async per-disk I/O executor (pdm/io_executor.*): the whole point of
// io_threads > 0 is to be *invisible* — outputs, IoStats, injected-fault
// sequences and error messages must be bit-identical to the serial path —
// while actually overlapping device work. These tests run the same
// deterministic workloads across io_threads ∈ {0, 2, D} and demand
// identical digests, including under concurrent probabilistic fault
// injection and retry backoff (the per-disk fault coin streams make the
// Nth access to a disk fault identically whatever thread executes it).
// CI additionally runs this binary under ThreadSanitizer.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/sort.h"
#include "emcgm/em_engine.h"
#include "scoped_temp_dir.h"
#include "pdm/disk_array.h"
#include "pdm/fault.h"
#include "pdm/striping.h"
#include "util/archive.h"
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

constexpr std::uint32_t kDisks = 8;
constexpr std::size_t kBlock = 128;
constexpr std::uint64_t kTracks = 40;

struct Digest {
  IoStats stats;
  FaultCounters faults;
  std::vector<std::byte> bytes;
};

/// A mixed read/write workload with enough in-flight work for real overlap:
/// write-behind stripes, interleaved verifying reads, then an async
/// read-back of everything, under probabilistic transient faults absorbed
/// by retries. Returns a digest that must not depend on io_threads.
Digest run_workload(std::uint32_t io_threads, IoExecutor::SleepFn sleep_hook) {
  FaultPlan plan;
  plan.seed = 77;
  plan.transient_write_prob = 0.05;
  plan.transient_read_prob = 0.05;
  DiskArrayOptions opts;
  opts.checksums = true;
  opts.retry.max_attempts = 64;
  opts.retry.base_backoff_us = 1;
  opts.retry.sleep = std::move(sleep_hook);
  opts.io_threads = io_threads;
  auto a = make_disk_array(BackendKind::kMemory, DiskGeometry{kDisks, kBlock},
                           "", opts, plan);
  EXPECT_EQ(a->async(), io_threads > 0);

  auto block_data = [](std::uint64_t t, std::uint32_t d) {
    return pattern(kBlock, static_cast<std::uint8_t>(t * kDisks + d));
  };

  std::vector<std::vector<std::byte>> staging(kDisks);
  for (std::uint64_t t = 0; t < kTracks; ++t) {
    std::vector<WriteSlot> slots;
    for (std::uint32_t d = 0; d < kDisks; ++d) {
      staging[d] = block_data(t, d);
      slots.push_back(WriteSlot{BlockAddr{d, t}, staging[d]});
    }
    a->parallel_write(slots);  // write-behind when async
    if (t % 8 == 7) {
      // Read-your-writes mid-stream: per-disk FIFO (and the read's own
      // completion wait) must make the just-written stripe visible.
      const std::uint64_t back = t - 4;
      std::vector<std::byte> buf(kDisks * kBlock);
      std::vector<ReadSlot> rs;
      for (std::uint32_t d = 0; d < kDisks; ++d) {
        rs.push_back(ReadSlot{BlockAddr{d, back},
                              std::span<std::byte>(buf).subspan(d * kBlock,
                                                                kBlock)});
      }
      a->parallel_read(rs);
      for (std::uint32_t d = 0; d < kDisks; ++d) {
        EXPECT_EQ(std::memcmp(buf.data() + d * kBlock,
                              block_data(back, d).data(), kBlock),
                  0)
            << "track " << back << " disk " << d;
      }
    }
  }

  // Async read-back of the whole array, many tickets in flight at once.
  Digest out;
  out.bytes.resize(kTracks * kDisks * kBlock);
  for (std::uint64_t t = 0; t < kTracks; ++t) {
    std::vector<ReadSlot> rs;
    for (std::uint32_t d = 0; d < kDisks; ++d) {
      rs.push_back(ReadSlot{
          BlockAddr{d, t},
          std::span<std::byte>(out.bytes)
              .subspan((t * kDisks + d) * kBlock, kBlock)});
    }
    (void)a->parallel_read_async(rs);
  }
  a->drain();
  out.stats = a->stats();
  out.faults = a->fault_injector()->counters();
  return out;
}

}  // namespace

TEST(PdmAsync, MatchesSerialUnderConcurrentFaults) {
  const Digest serial = run_workload(0, {});
  EXPECT_GT(serial.stats.retries, 0u) << "workload must exercise retries";
  for (std::uint32_t T : {2u, kDisks}) {
    const Digest async = run_workload(T, {});
    EXPECT_EQ(async.bytes, serial.bytes) << "io_threads=" << T;
    EXPECT_EQ(async.stats, serial.stats) << "io_threads=" << T;
    EXPECT_EQ(async.faults, serial.faults) << "io_threads=" << T;
  }
}

TEST(PdmAsync, SleepHookPerturbationKeepsResultsIdentical) {
  // A hostile backoff hook that really sleeps for pseudo-random durations
  // perturbs worker timing without being able to change any result: the
  // per-disk fault streams are indexed by access count, not wall clock.
  const Digest serial = run_workload(0, {});
  IoExecutor::SleepFn jitter = [](std::uint64_t us) {
    std::this_thread::sleep_for(std::chrono::microseconds((us * 37) % 97));
  };
  const Digest async = run_workload(kDisks, std::move(jitter));
  EXPECT_EQ(async.bytes, serial.bytes);
  EXPECT_EQ(async.stats, serial.stats);
  EXPECT_EQ(async.faults, serial.faults);
}

TEST(PdmAsync, AutoThreadsResolvesAndWorks) {
  DiskArrayOptions opts;
  opts.io_threads = kIoThreadsAuto;
  auto a = make_disk_array(BackendKind::kMemory, DiskGeometry{4, 64}, "",
                           opts);
  EXPECT_TRUE(a->async());  // min(D, hw_concurrency) >= 1
  const auto data = pattern(64, 9);
  WriteSlot w{BlockAddr{3, 2}, data};
  a->parallel_write(std::span<const WriteSlot>(&w, 1));
  std::vector<std::byte> out(64);
  ReadSlot r{BlockAddr{3, 2}, out};
  a->parallel_read(std::span<const ReadSlot>(&r, 1));
  EXPECT_EQ(out, data);
  a->drain();
  EXPECT_EQ(a->stats().write_ops, 1u);
  EXPECT_EQ(a->stats().read_ops, 1u);
}

TEST(PdmAsync, CanonicalErrorMatchesSerial) {
  // Retry exhaustion on one specific per-disk read index must surface with
  // the identical exception kind, message, and retry count in both modes —
  // and the charge probe must see exactly the counted blocks: the failed
  // op is charged nowhere, in either mode.
  FaultPlan plan;
  plan.transient_read_at = 2;  // disk 1's second read, below
  plan.transient_burst = 100;
  std::string msgs[2];
  IoStats stats[2];
  std::uint64_t charged[2] = {0, 0};
  int i = 0;
  for (std::uint32_t T : {0u, 4u}) {
    DiskArrayOptions opts;
    opts.retry.max_attempts = 3;
    opts.io_threads = T;
    opts.on_charge = [&charged, i](std::uint64_t blocks) {
      charged[i] += blocks;
    };
    auto a = make_disk_array(BackendKind::kMemory, DiskGeometry{4, 128}, "",
                             opts, plan);
    const auto data = pattern(128, 3);
    std::vector<WriteSlot> ws;
    for (std::uint32_t d = 0; d < 4; ++d) {
      ws.push_back(WriteSlot{BlockAddr{d, 0}, data});
    }
    a->parallel_write(ws);
    std::vector<std::byte> buf(4 * 128);
    std::vector<ReadSlot> rs;
    for (std::uint32_t d = 0; d < 4; ++d) {
      rs.push_back(ReadSlot{BlockAddr{d, 0},
                            std::span<std::byte>(buf).subspan(d * 128, 128)});
    }
    a->parallel_read(rs);  // every disk's read #1: clean
    std::vector<std::byte> one(128);
    ReadSlot r{BlockAddr{1, 0}, one};
    try {
      a->parallel_read(std::span<const ReadSlot>(&r, 1));  // disk 1 read #2
      FAIL() << "expected retry exhaustion (io_threads=" << T << ")";
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kExhausted);
      msgs[i] = e.what();
    }
    stats[i] = a->stats();
    EXPECT_EQ(charged[i], stats[i].total_blocks()) << "io_threads=" << T;
    ++i;
  }
  EXPECT_EQ(msgs[0], msgs[1]);
  EXPECT_EQ(stats[0], stats[1]);
  EXPECT_EQ(charged[0], charged[1]);
}

TEST(PdmAsync, CrashSurfacesIdenticallyToSerial) {
  FaultPlan plan;
  plan.crash_after_ops = 2;
  std::string msgs[2];
  int i = 0;
  for (std::uint32_t T : {0u, 4u}) {
    DiskArrayOptions opts;
    opts.io_threads = T;
    auto a = make_disk_array(BackendKind::kMemory, DiskGeometry{4, 128}, "",
                             opts, plan);
    const auto data = pattern(128, 4);
    std::vector<WriteSlot> ws;
    for (std::uint32_t d = 0; d < 4; ++d) {
      ws.push_back(WriteSlot{BlockAddr{d, 0}, data});
    }
    a->parallel_write(ws);  // op 1
    std::vector<std::byte> buf(128);
    ReadSlot r{BlockAddr{0, 0}, buf};
    a->parallel_read(std::span<const ReadSlot>(&r, 1));  // op 2
    try {
      a->parallel_read(std::span<const ReadSlot>(&r, 1));  // op 3: crash
      FAIL() << "expected fail-stop crash (io_threads=" << T << ")";
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kCrash);
      msgs[i] = e.what();
    }
    // Disarm = reboot; the array must be fully usable again.
    a->fault_injector()->disarm();
    a->parallel_read(std::span<const ReadSlot>(&r, 1));
    EXPECT_EQ(buf, data);
    ++i;
  }
  EXPECT_EQ(msgs[0], msgs[1]);
}

// ------------------------------------------------------- engine identity --

namespace {

std::vector<cgm::PartitionSet> keyed_inputs(std::uint32_t v, std::size_t n) {
  Rng rng(4242);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.next_below(1000);
  return {cgm::even_chunks<std::uint64_t>(keys, v)};
}

/// The sort's outputs and run statistics with `io_threads` I/O workers.
std::pair<std::vector<cgm::PartitionSet>, cgm::RunResult> run_engine(
    cgm::MachineConfig cfg, std::uint32_t io_threads) {
  cfg.io_threads = io_threads;
  em::EmEngine e(cfg);
  algo::SampleSortProgram<std::uint64_t> prog;
  auto out = e.run(prog, keyed_inputs(cfg.v, 2000));
  return {std::move(out), e.last_result()};
}

}  // namespace

TEST(PdmAsync, EngineBitIdenticalAcrossIoThreadsChained) {
  // Chained layout with probabilistic transient faults + checksums: the
  // engine's prefetch/write-behind pipeline (contexts and both message
  // stores) must not move a single counted op or fault.
  cgm::MachineConfig cfg;
  cfg.v = 4;
  cfg.p = 1;
  cfg.disk.num_disks = 4;
  cfg.disk.block_bytes = 128;
  cfg.layout = cgm::MsgLayout::kChained;
  cfg.checksums = true;
  cfg.retry.max_attempts = 32;
  cfg.fault.seed = 5;
  cfg.fault.transient_read_prob = 0.01;
  cfg.fault.transient_write_prob = 0.01;
  cfg.seed = 7;
  const auto [out, run] = run_engine(cfg, 0);
  EXPECT_GT(run.io.retries, 0u);
  for (std::uint32_t T : {2u, 4u}) {
    const auto [out_t, run_t] = run_engine(cfg, T);
    EXPECT_TRUE(out == out_t) << "io_threads=" << T;
    EXPECT_EQ(cgm::run_mismatches(run, run_t), "") << "io_threads=" << T;
  }
}

TEST(PdmAsync, EngineBitIdenticalAcrossIoThreadsSingleCopyMatrix) {
  // Observation-2 single-copy staggered matrix: vproc j's outgoing slots
  // reuse the very blocks its inbox freed, so this is the layout where a
  // wrong prefetch/write overlap would corrupt data rather than just stats.
  cgm::MachineConfig cfg;
  cfg.v = 4;
  cfg.p = 1;
  cfg.disk.num_disks = 4;
  cfg.disk.block_bytes = 128;
  cfg.layout = cgm::MsgLayout::kStaggeredMatrix;
  cfg.balanced_routing = true;
  cfg.single_copy_matrix = true;
  cfg.seed = 7;
  const auto [out, run] = run_engine(cfg, 0);
  for (std::uint32_t T : {2u, 4u}) {
    const auto [out_t, run_t] = run_engine(cfg, T);
    EXPECT_TRUE(out == out_t) << "io_threads=" << T;
    EXPECT_EQ(cgm::run_mismatches(run, run_t), "") << "io_threads=" << T;
  }
}

TEST(PdmAsync, EngineBitIdenticalAcrossIoThreadsFileBackend) {
  // Same chained workload against real pread/pwrite files: the async
  // executor must be invisible on persisted bytes too, not just on the
  // counting backend.
  cgm::MachineConfig cfg;
  cfg.v = 4;
  cfg.p = 1;
  cfg.disk.num_disks = 4;
  cfg.disk.block_bytes = 128;
  cfg.layout = cgm::MsgLayout::kChained;
  cfg.checksums = true;
  cfg.backend = pdm::BackendKind::kFile;
  cfg.seed = 7;
  std::vector<test::ScopedTempDir> dirs;
  auto with_dir = [&](cgm::MachineConfig c) {
    dirs.emplace_back("async_file");
    c.file_dir = dirs.back().path();
    return c;
  };
  const auto [out, run] = run_engine(with_dir(cfg), 0);
  for (std::uint32_t T : {2u, 4u}) {
    const auto [out_t, run_t] = run_engine(with_dir(cfg), T);
    EXPECT_TRUE(out == out_t) << "io_threads=" << T;
    EXPECT_EQ(cgm::run_mismatches(run, run_t), "") << "io_threads=" << T;
  }
}

TEST(PdmAsync, EngineBitIdenticalAcrossIoThreadsMultiProcThreads) {
  // p = 2 with host threads AND per-host async executors: two layers of
  // threading at once; arrival writes go through the write-behind barrier.
  cgm::MachineConfig cfg;
  cfg.v = 4;
  cfg.p = 2;
  cfg.disk.num_disks = 4;
  cfg.disk.block_bytes = 128;
  cfg.layout = cgm::MsgLayout::kChained;
  cfg.use_threads = true;
  cfg.seed = 7;
  const auto [out, run] = run_engine(cfg, 0);
  for (std::uint32_t T : {2u, 4u}) {
    const auto [out_t, run_t] = run_engine(cfg, T);
    EXPECT_TRUE(out == out_t) << "io_threads=" << T;
    EXPECT_EQ(cgm::run_mismatches(run, run_t), "") << "io_threads=" << T;
  }
}

TEST(PdmAsync, PrefetchDepthInvisibleOnOutputsAndStats) {
  // prefetch_depth widens the read-ahead window (how many vproc contexts +
  // inboxes are in flight), never what is read: every vproc is prefetched
  // exactly once, so outputs, total IoStats and the per-step ledger are all
  // bit-identical across depths. depth=1 is the legacy one-ahead pipeline.
  cgm::MachineConfig cfg;
  cfg.v = 8;
  cfg.p = 1;
  cfg.disk.num_disks = 4;
  cfg.disk.block_bytes = 128;
  cfg.layout = cgm::MsgLayout::kChained;
  cfg.checksums = true;
  cfg.seed = 7;
  cfg.prefetch_depth = 1;
  const auto [out, run] = run_engine(cfg, 2);
  for (std::uint32_t depth : {2u, 4u, 8u, 64u}) {
    cfg.prefetch_depth = depth;
    const auto [out_d, run_d] = run_engine(cfg, 2);
    EXPECT_TRUE(out == out_d) << "prefetch_depth=" << depth;
    EXPECT_EQ(cgm::run_mismatches(run, run_d), "")
        << "prefetch_depth=" << depth;
  }
}

TEST(PdmAsync, PrefetchDepthBoundedByMemoryBudget) {
  // With a memory budget the window self-limits to M/2 bytes of contexts
  // (always at least one ahead) — and that clamping must be invisible too.
  cgm::MachineConfig cfg;
  cfg.v = 8;
  cfg.p = 1;
  cfg.disk.num_disks = 4;
  cfg.disk.block_bytes = 128;
  cfg.layout = cgm::MsgLayout::kChained;
  cfg.seed = 7;
  cfg.prefetch_depth = 1;
  const auto [out, run] = run_engine(cfg, 2);
  cfg.prefetch_depth = 8;
  // The floor must clear the engine's legitimate per-vproc residency check
  // (one vproc's context + inbox must always fit in M).
  for (std::uint64_t mem : {std::uint64_t{1} << 14, std::uint64_t{1} << 16,
                            std::uint64_t{1} << 30}) {
    cfg.memory_bytes = mem;
    const auto [out_m, run_m] = run_engine(cfg, 2);
    EXPECT_TRUE(out == out_m) << "M=" << mem;
    EXPECT_EQ(cgm::run_mismatches(run, run_m), "") << "M=" << mem;
  }
}

TEST(PdmAsync, PrefetchDepthInvisibleUnderThreadsAndFaults) {
  // Deep windows under host threads + async I/O + transient faults: the
  // per-disk fault coins fire by access order, which deeper prefetch must
  // not perturb.
  cgm::MachineConfig cfg;
  cfg.v = 4;
  cfg.p = 2;
  cfg.disk.num_disks = 4;
  cfg.disk.block_bytes = 128;
  cfg.layout = cgm::MsgLayout::kChained;
  cfg.checksums = true;
  cfg.use_threads = true;
  cfg.retry.max_attempts = 32;
  cfg.fault.seed = 5;
  cfg.fault.transient_read_prob = 0.01;
  cfg.fault.transient_write_prob = 0.01;
  cfg.seed = 7;
  cfg.prefetch_depth = 1;
  const auto [out, run] = run_engine(cfg, 2);
  cfg.prefetch_depth = 4;
  const auto [out_d, run_d] = run_engine(cfg, 2);
  EXPECT_TRUE(out == out_d);
  EXPECT_EQ(cgm::run_mismatches(run, run_d), "");
}

TEST(PdmAsync, CooperativeCallsChargeWhatTheyCounted) {
  // The job service drains an engine's charge account after every
  // cooperative call, so each call must be charged exactly the blocks it
  // counted — start() included, whose context writes are write-behind —
  // and the per-call charge sequence may not depend on io_threads.
  cgm::MachineConfig cfg;
  cfg.v = 4;
  cfg.p = 2;
  cfg.disk.num_disks = 4;
  cfg.disk.block_bytes = 128;
  cfg.layout = cgm::MsgLayout::kChained;
  cfg.net.enabled = true;
  cfg.seed = 7;
  std::vector<std::uint64_t> per_call[2];
  int i = 0;
  for (std::uint32_t T : {0u, 4u}) {
    cfg.io_threads = T;
    em::EmEngine e(cfg);
    std::uint64_t charged = 0;
    e.set_io_charge_hook([&charged](std::uint64_t blocks) {
      charged += blocks;
    });
    auto counted = [&] {
      return e.io_stats(0).total_blocks() + e.io_stats(1).total_blocks();
    };
    algo::SampleSortProgram<std::uint64_t> prog;
    e.start(prog, keyed_inputs(cfg.v, 2000));
    bool more = true;
    while (more) {
      EXPECT_EQ(charged, counted()) << "io_threads=" << T;
      per_call[i].push_back(charged);
      more = e.step();
    }
    e.finish();
    EXPECT_EQ(charged, counted()) << "io_threads=" << T;
    per_call[i].push_back(charged);
    ++i;
  }
  EXPECT_EQ(per_call[0], per_call[1]);
}
