// Fault-tolerance subsystem: CRC32C envelope detection, deterministic fault
// injection, retry policy with exponential backoff, and superstep
// checkpoint/recovery (kill the engine at/inside every compound superstep of
// a multi-round sort, resume(), and demand bit-identical output).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <tuple>

#include "algo/sort.h"
#include "scoped_temp_dir.h"
#include "emcgm/em_engine.h"
#include "pdm/checksum.h"
#include "pdm/disk_array.h"
#include "pdm/fault.h"
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

std::unique_ptr<DiskArray> array_with(const FaultPlan& plan,
                                      DiskArrayOptions opts,
                                      std::uint32_t D = 4,
                                      std::size_t B = 128) {
  return make_disk_array(BackendKind::kMemory, DiskGeometry{D, B}, "", opts,
                         plan);
}

void write_one(DiskArray& a, std::uint32_t disk, std::uint64_t track,
               std::span<const std::byte> data) {
  WriteSlot w{BlockAddr{disk, track}, data};
  a.parallel_write(std::span<const WriteSlot>(&w, 1));
}

std::vector<std::byte> read_one(DiskArray& a, std::uint32_t disk,
                                std::uint64_t track) {
  std::vector<std::byte> out(a.block_bytes());
  ReadSlot r{BlockAddr{disk, track}, out};
  a.parallel_read(std::span<const ReadSlot>(&r, 1));
  return out;
}

// Fill every block the array ever wrote with 0xFF (through the array, so a
// checksummed array seals the garbage and reads it back without complaint).
void overwrite_every_block(DiskArray& a) {
  const std::vector<std::byte> ff(a.block_bytes(), std::byte{0xFF});
  for (std::uint32_t d = 0; d < a.num_disks(); ++d) {
    for (std::uint64_t t = 0; t < a.backend().tracks_used(d); ++t) {
      write_one(a, d, t, ff);
    }
  }
  a.drain();
}

}  // namespace

// ---------------------------------------------------------------- CRC32C --

TEST(Checksum, Crc32cKnownAnswer) {
  // Standard CRC-32C check value for the ASCII string "123456789".
  const char* s = "123456789";
  const auto bytes = std::as_bytes(std::span<const char>(s, 9));
  EXPECT_EQ(crc32c(bytes), 0xE3069283u);
  EXPECT_EQ(crc32c(std::span<const std::byte>{}), 0u);
}

TEST(Checksum, Crc32cKernelsMatchBitwiseReference) {
  // Bit-at-a-time CRC32C: shares neither the table nor the crc32 instruction
  // with the kernels under test. The lengths cover every tail of the 3-way
  // kernel's interleaved loop (3 * kCrc32cStreamBytes per step) and of its
  // 8-byte word loop, each step boundary +- 1, a 4 KiB payload, a 4 KiB
  // block in its envelope, and two of them; the start offsets cover every
  // word misalignment. The copy form must return the same CRC and copy the
  // bytes, into a destination misaligned differently from the source.
  const auto reference = [](std::span<const std::byte> data,
                            std::uint32_t seed) {
    std::uint32_t c = ~seed;
    for (std::byte b : data) {
      c ^= static_cast<std::uint8_t>(b);
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (c >> 1) ^ 0x82F63B78u : c >> 1;
      }
    }
    return ~c;
  };
  constexpr std::size_t kMax = 8216;
  std::vector<std::byte> buf(kMax + 7);
  Rng rng(14);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next());
  constexpr std::size_t kStep = 3 * kCrc32cStreamBytes;
  std::vector<std::size_t> lengths(kStep + 65);
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  for (std::size_t m = 2 * kStep; m + 1 <= kMax; m += kStep) {
    lengths.insert(lengths.end(), {m - 1, m, m + 1});
  }
  lengths.insert(lengths.end(), {4096, 4096 + kEnvelopeBytes, kMax});
  const std::uint32_t seed = 0x9E3779B9u;
  std::vector<std::byte> dst(kMax + 7);
  for (const std::size_t len : lengths) {
    for (std::size_t off = 0; off < 8; ++off) {
      const auto data = std::span<const std::byte>(buf).subspan(off, len);
      const std::uint32_t want = reference(data, seed);
      EXPECT_EQ(crc32c(data, seed), want) << "len " << len << " off " << off;
      EXPECT_EQ(crc32c_portable(data, seed), want)
          << "len " << len << " off " << off;
      const auto to = std::span<std::byte>(dst).subspan(7 - off, len);
      std::fill(dst.begin(), dst.end(), std::byte{0xA5});
      EXPECT_EQ(crc32c_copy(to, data, seed), want)
          << "copy len " << len << " off " << off;
      EXPECT_TRUE(std::equal(data.begin(), data.end(), to.begin()))
          << "copy len " << len << " off " << off;
    }
  }
  // Chaining: crc32c(b, crc32c(a)) == crc32c(a || b), cutting inside and
  // between words and streams.
  const auto whole =
      std::span<const std::byte>(buf).first(4096 + kEnvelopeBytes);
  for (const std::size_t cut : {0, 1, 7, 8, 13, 24, 256, 767, 768, 769, 4096,
                                4119, 4120}) {
    EXPECT_EQ(crc32c(whole.subspan(cut), crc32c(whole.first(cut))),
              crc32c(whole))
        << "cut " << cut;
  }
}

TEST(Checksum, SealUnsealRoundTrip) {
  const auto payload = pattern(100, 3);
  std::vector<std::byte> phys(100 + kEnvelopeBytes);
  seal_block(2, 77, payload, phys);
  std::vector<std::byte> out(100);
  unseal_block(2, 77, phys, out);
  EXPECT_EQ(out, payload);
}

TEST(Checksum, DetectsBitRot) {
  // One flipped bit in each of the 3-way kernel's streams (A, B, C of its
  // second step) and in its one-stream tail.
  constexpr std::size_t L = kCrc32cStreamBytes;
  const std::size_t n = 4096;
  const auto payload = pattern(n, 4);
  std::vector<std::byte> sealed(n + kEnvelopeBytes);
  seal_block(0, 5, payload, sealed);
  for (const std::size_t at : {3 * L + 40, 4 * L + 41, 5 * L + 42, n - 3}) {
    auto phys = sealed;
    phys[kEnvelopeBytes + at] ^= std::byte{0x01};
    std::vector<std::byte> out(n);
    try {
      unseal_block(0, 5, phys, out);
      ADD_FAILURE() << "corruption at byte " << at << " not detected";
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kCorruption) << "byte " << at;
    }
  }
}

TEST(Checksum, DetectsMisdirectedBlock) {
  // A block sealed for (0, 5) but fetched from (1, 5) or (0, 6) must fail
  // the address-tag check even though its bytes are intact.
  const auto payload = pattern(64, 5);
  std::vector<std::byte> phys(64 + kEnvelopeBytes);
  seal_block(0, 5, payload, phys);
  std::vector<std::byte> out(64);
  EXPECT_THROW(unseal_block(1, 5, phys, out), IoError);
  EXPECT_THROW(unseal_block(0, 6, phys, out), IoError);
}

TEST(Checksum, SparseBlockUnsealsToZero) {
  std::vector<std::byte> phys(64 + kEnvelopeBytes, std::byte{0});
  std::vector<std::byte> out(64, std::byte{0xFF});
  unseal_block(3, 9, phys, out);
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
}

// ------------------------------------------------------- fault injection --

TEST(FaultInjection, DeterministicAcrossRuns) {
  FaultPlan plan;
  plan.seed = 42;
  plan.transient_write_prob = 0.3;
  plan.transient_read_prob = 0.2;

  auto run_once = [&] {
    DiskArrayOptions opts;
    opts.retry.max_attempts = 50;  // absorb every transient
    auto a = array_with(plan, opts);
    const auto data = pattern(128, 1);
    for (std::uint64_t t = 0; t < 20; ++t) write_one(*a, t % 4, t, data);
    for (std::uint64_t t = 0; t < 20; ++t) read_one(*a, t % 4, t);
    return std::pair{a->stats().retries,
                     a->fault_injector()->counters()};
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_GT(first.second.transient_writes + first.second.transient_reads, 0u);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST(FaultInjection, TransientBurstIsRetriedToSuccess) {
  FaultPlan plan;
  plan.transient_write_at = 3;
  plan.transient_burst = 2;
  DiskArrayOptions opts;
  opts.retry.max_attempts = 3;
  auto a = array_with(plan, opts);
  const auto data = pattern(128, 2);
  for (std::uint64_t t = 0; t < 5; ++t) write_one(*a, 0, t, data);
  EXPECT_EQ(a->stats().retries, 2u);
  EXPECT_EQ(a->fault_injector()->counters().transient_writes, 2u);
  // The retried block landed intact.
  EXPECT_EQ(read_one(*a, 0, 2), data);
}

TEST(FaultInjection, RetryBudgetExhausts) {
  FaultPlan plan;
  plan.transient_read_at = 1;
  plan.transient_burst = 10;
  DiskArrayOptions opts;
  opts.retry.max_attempts = 3;
  auto a = array_with(plan, opts);
  const auto data = pattern(128, 3);
  write_one(*a, 1, 0, data);
  try {
    read_one(*a, 1, 0);
    FAIL() << "expected retry exhaustion";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kExhausted);
  }
  EXPECT_EQ(a->stats().retries, 2u);  // attempts 2 and 3
}

TEST(FaultInjection, BackoffScheduleIsExponential) {
  FaultPlan plan;
  plan.transient_write_at = 1;
  plan.transient_burst = 3;
  DiskArrayOptions opts;
  opts.retry.max_attempts = 4;
  opts.retry.base_backoff_us = 100;
  opts.retry.backoff_multiplier = 2.0;
  opts.retry.max_backoff_us = 350;
  std::vector<std::uint64_t> delays;
  opts.retry.sleep = [&](std::uint64_t us) { delays.push_back(us); };
  auto a = array_with(plan, opts);
  write_one(*a, 0, 0, pattern(128, 4));
  // Retries 1..3 back off 100us, 200us, then min(400, cap 350).
  EXPECT_EQ(delays, (std::vector<std::uint64_t>{100, 200, 350}));
}

TEST(FaultInjection, SilentBitFlipCaughtByChecksum) {
  FaultPlan plan;
  plan.bitflip_write_at = 2;  // triggers fire on the per-disk write index
  DiskArrayOptions opts;
  opts.checksums = true;
  auto a = array_with(plan, opts);
  const auto data = pattern(128, 5);
  write_one(*a, 0, 0, data);  // disk 0 write #1: clean
  write_one(*a, 0, 1, data);  // disk 0 write #2: corrupted at rest
  EXPECT_EQ(read_one(*a, 0, 0), data);
  try {
    read_one(*a, 0, 1);
    FAIL() << "bit flip not detected";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kCorruption);
  }
  EXPECT_EQ(a->stats().corruptions, 1u);
  EXPECT_EQ(a->fault_injector()->counters().bitflips, 1u);
}

TEST(FaultInjection, SilentBitFlipIsSilentWithoutChecksums) {
  // The motivating failure mode: without the envelope the read "succeeds"
  // and returns wrong bytes.
  FaultPlan plan;
  plan.bitflip_write_at = 1;
  auto a = array_with(plan, DiskArrayOptions{});
  const auto data = pattern(128, 6);
  write_one(*a, 0, 0, data);
  const auto got = read_one(*a, 0, 0);
  EXPECT_NE(got, data);
  EXPECT_EQ(a->stats().corruptions, 0u);
}

TEST(FaultInjection, TornWriteCaughtByChecksum) {
  FaultPlan plan;
  plan.torn_write_at = 1;
  DiskArrayOptions opts;
  opts.checksums = true;
  auto a = array_with(plan, opts);
  write_one(*a, 2, 4, pattern(128, 7));
  try {
    read_one(*a, 2, 4);
    FAIL() << "torn write not detected";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kCorruption);
  }
  EXPECT_EQ(a->fault_injector()->counters().torn_writes, 1u);
}

TEST(FaultInjection, FailStopCrashAfterKOps) {
  FaultPlan plan;
  plan.crash_after_ops = 3;
  auto a = array_with(plan, DiskArrayOptions{});
  const auto data = pattern(128, 8);
  write_one(*a, 0, 0, data);
  write_one(*a, 1, 0, data);
  write_one(*a, 2, 0, data);
  try {
    write_one(*a, 3, 0, data);
    FAIL() << "expected fail-stop crash";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kCrash);
  }
  // The machine stays down until disarmed.
  EXPECT_THROW(read_one(*a, 0, 0), IoError);
  a->fault_injector()->disarm();
  EXPECT_EQ(read_one(*a, 0, 0), data);
}

// ---------------------------------------------------- checkpoint/resume --

namespace {

cgm::MachineConfig ckpt_cfg() {
  cgm::MachineConfig cfg;
  cfg.v = 4;
  cfg.p = 1;
  cfg.disk.num_disks = 4;
  cfg.disk.block_bytes = 128;
  cfg.layout = cgm::MsgLayout::kChained;
  cfg.checkpointing = true;
  cfg.checksums = true;
  cfg.seed = 7;
  return cfg;
}

std::vector<std::uint64_t> sort_keys_input(std::size_t n) {
  Rng rng(12345);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.next_below(1000);  // duplicate-heavy
  return keys;
}

std::vector<cgm::PartitionSet> keyed_inputs(std::uint32_t v,
                                            const std::vector<std::uint64_t>& keys) {
  return {cgm::even_chunks<std::uint64_t>(keys, v)};
}

}  // namespace

TEST(Checkpoint, CheckpointingDoesNotChangeResults) {
  const auto keys = sort_keys_input(500);
  algo::SampleSortProgram<std::uint64_t> prog;

  auto plain_cfg = ckpt_cfg();
  plain_cfg.checkpointing = false;
  plain_cfg.checksums = false;
  em::EmEngine plain(plain_cfg);
  const auto expected = plain.run(prog, keyed_inputs(4, keys));

  em::EmEngine ckpt(ckpt_cfg());
  const auto got = ckpt.run(prog, keyed_inputs(4, keys));
  EXPECT_TRUE(expected == got);
  EXPECT_TRUE(ckpt.has_checkpoint());
}

// The kill-and-resume sweep runs on both storage backends — MemoryBackend
// (counts only) and FileBackend (real pread/pwrite/fsync under /tmp), so
// recovery is exercised against genuinely persisted bytes too — and across
// io_threads ∈ {0, 2, D}: crash points are op-indexed, so the async
// executor must put every fail-stop at exactly the same place the serial
// path does. Each engine instance gets its own directory — FileBackend
// truncates on open.
class CheckpointSweep
    : public ::testing::TestWithParam<
          std::tuple<pdm::BackendKind, std::uint32_t>> {
 protected:
  cgm::MachineConfig sweep_cfg() {
    auto cfg = ckpt_cfg();
    cfg.backend = std::get<0>(GetParam());
    cfg.io_threads = std::get<1>(GetParam());
    if (cfg.backend == pdm::BackendKind::kFile) {
      dirs_.emplace_back("sweep");
      cfg.file_dir = dirs_.back().path();
    }
    return cfg;
  }

 private:
  std::vector<test::ScopedTempDir> dirs_;
};

TEST_P(CheckpointSweep, ResumeAfterEverySuperstepBoundary) {
  const auto keys = sort_keys_input(800);
  algo::SampleSortProgram<std::uint64_t> prog;

  // Reference: uninterrupted checkpointed run. Its per-step I/O trace gives
  // the parallel-op count at every physical superstep boundary.
  em::EmEngine ref(sweep_cfg());
  const auto expected = ref.run(prog, keyed_inputs(4, keys));
  ASSERT_GT(ref.last_result().app_rounds, 3u) << "need a multi-round sort";
  // Every commit was made durable before being declared committed.
  EXPECT_EQ(ref.io_stats(0).fsyncs, ref.last_result().io_per_step.size());

  // Cross-mode identity: the async executor must be invisible — outputs
  // and the disk array's totals bit-identical to the serial path on the
  // same backend, and the run check naming nothing.
  if (std::get<1>(GetParam()) != 0) {
    auto serial_cfg = sweep_cfg();
    serial_cfg.io_threads = 0;
    em::EmEngine serial(serial_cfg);
    const auto serial_out = serial.run(prog, keyed_inputs(4, keys));
    EXPECT_TRUE(serial_out == expected);
    EXPECT_EQ(serial.io_stats(0), ref.io_stats(0));
    EXPECT_EQ(cgm::run_mismatches(serial.last_result(), ref.last_result()),
              "");
  }

  std::vector<std::uint64_t> crash_points;
  std::uint64_t cum = 0;
  for (const auto& step : ref.last_result().io_per_step) {
    const std::uint64_t next = cum + step.total_ops();
    crash_points.push_back(cum + 1);            // just after the boundary
    if (step.total_ops() > 2) {
      crash_points.push_back(cum + step.total_ops() / 2);  // mid-superstep
    }
    cum = next;
  }
  crash_points.push_back(cum);  // during output collection / final commit

  int resumed = 0;
  for (const std::uint64_t K : crash_points) {
    auto crash_cfg = sweep_cfg();
    crash_cfg.fault.crash_after_ops = K;
    em::EmEngine e(crash_cfg);
    bool crashed = false;
    std::vector<cgm::PartitionSet> got;
    try {
      got = e.run(prog, keyed_inputs(4, keys));
    } catch (const IoError& err) {
      ASSERT_EQ(err.kind(), IoErrorKind::kCrash) << "K=" << K;
      crashed = true;
    }
    if (!crashed) {
      EXPECT_TRUE(expected == got) << "K=" << K;
      continue;
    }
    if (!e.has_checkpoint()) continue;  // died before the first commit
    e.disarm_faults();
    got = e.resume(prog);
    ++resumed;
    // Bit-identical: == compares every partition byte for byte.
    EXPECT_TRUE(expected == got) << "resumed from K=" << K;
  }
  // The sweep must actually have exercised recovery, at several boundaries.
  EXPECT_GE(resumed, 8);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CheckpointSweep,
    ::testing::Combine(::testing::Values(pdm::BackendKind::kMemory,
                                         pdm::BackendKind::kFile),
                       ::testing::Values(0u, 2u, 4u)),
    [](const auto& info) {
      const char* b = std::get<0>(info.param) == pdm::BackendKind::kMemory
                          ? "Memory"
                          : "File";
      return std::string(b) + "T" + std::to_string(std::get<1>(info.param));
    });

TEST(Checkpoint, ResumeWithBalancedRoutingAndStaggeredMatrix) {
  auto cfg = ckpt_cfg();
  cfg.layout = cgm::MsgLayout::kStaggeredMatrix;
  cfg.balanced_routing = true;
  const auto keys = sort_keys_input(2000);  // satisfies the Lemma 2 floor
  algo::SampleSortProgram<std::uint64_t> prog;

  em::EmEngine ref(cfg);
  const auto expected = ref.run(prog, keyed_inputs(4, keys));

  // Crash inside an intermediate regroup superstep (balanced routing doubles
  // the physical supersteps, so pick a point past the first app round).
  std::uint64_t cum = 0;
  const auto& steps = ref.last_result().io_per_step;
  ASSERT_GE(steps.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) cum += steps[i].total_ops();

  auto crash_cfg = cfg;
  crash_cfg.fault.crash_after_ops = cum + 1;
  em::EmEngine e(crash_cfg);
  EXPECT_THROW(e.run(prog, keyed_inputs(4, keys)), IoError);
  ASSERT_TRUE(e.has_checkpoint());
  e.disarm_faults();
  const auto got = e.resume(prog);
  EXPECT_TRUE(expected == got);
}

TEST(Checkpoint, ResumeWithMultipleRealProcessors) {
  // Both use_threads modes run the whole crash/resume sweep; the reference
  // outputs and I/O totals must be bit-identical between modes, and every
  // resumed run must reproduce them.
  const auto keys = sort_keys_input(600);
  algo::SampleSortProgram<std::uint64_t> prog;

  std::vector<cgm::PartitionSet> serial_expected;
  cgm::RunResult serial_run;
  for (bool threads : {false, true}) {
    auto cfg = ckpt_cfg();
    cfg.p = 2;
    cfg.use_threads = threads;

    em::EmEngine ref(cfg);
    const auto expected = ref.run(prog, keyed_inputs(4, keys));
    if (!threads) {
      serial_expected = expected;
      serial_run = ref.last_result();
    } else {
      EXPECT_TRUE(serial_expected == expected);
      EXPECT_EQ(cgm::run_mismatches(serial_run, ref.last_result()), "");
    }

    std::uint64_t cum = 0;
    for (std::size_t i = 0; i + 1 < ref.last_result().io_per_step.size();
         ++i) {
      cum += ref.last_result().io_per_step[i].total_ops();
      auto crash_cfg = cfg;
      // Per-proc op counters: halve so the crash lands mid-run on each disk
      // subsystem (both procs do roughly symmetric I/O).
      crash_cfg.fault.crash_after_ops = cum / 2 + 1;
      em::EmEngine e(crash_cfg);
      bool crashed = false;
      try {
        (void)e.run(prog, keyed_inputs(4, keys));
      } catch (const IoError&) {
        crashed = true;
      }
      if (!crashed || !e.has_checkpoint()) continue;
      e.disarm_faults();
      const auto got = e.resume(prog);
      EXPECT_TRUE(expected == got)
          << "boundary " << i << " threads=" << threads;
    }
  }
}

TEST(Checkpoint, ResumeOnFileBackend) {
  test::ScopedTempDir ref_dir("ckpt_file");
  test::ScopedTempDir crash_dir("ckpt_file");
  auto cfg = ckpt_cfg();
  cfg.backend = pdm::BackendKind::kFile;
  cfg.file_dir = ref_dir.path();
  const auto keys = sort_keys_input(400);
  algo::SampleSortProgram<std::uint64_t> prog;

  em::EmEngine ref(cfg);
  const auto expected = ref.run(prog, keyed_inputs(4, keys));

  auto crash_cfg = cfg;
  crash_cfg.file_dir = crash_dir.path();
  crash_cfg.fault.crash_after_ops = 40;
  em::EmEngine e(crash_cfg);
  bool crashed = false;
  try {
    (void)e.run(prog, keyed_inputs(4, keys));
  } catch (const IoError& err) {
    EXPECT_EQ(err.kind(), IoErrorKind::kCrash);
    crashed = true;
  }
  ASSERT_TRUE(crashed);
  ASSERT_TRUE(e.has_checkpoint());
  e.disarm_faults();
  const auto got = e.resume(prog);
  EXPECT_TRUE(expected == got);
}

TEST(Checkpoint, TransientFaultsDuringSortAreAbsorbedByRetries) {
  auto cfg = ckpt_cfg();
  cfg.fault.transient_write_prob = 0.02;
  cfg.fault.transient_read_prob = 0.02;
  cfg.fault.seed = 99;
  cfg.retry.max_attempts = 8;
  const auto keys = sort_keys_input(500);
  algo::SampleSortProgram<std::uint64_t> prog;

  auto clean_cfg = ckpt_cfg();
  em::EmEngine clean(clean_cfg);
  const auto expected = clean.run(prog, keyed_inputs(4, keys));

  em::EmEngine faulty(cfg);
  const auto got = faulty.run(prog, keyed_inputs(4, keys));
  EXPECT_TRUE(expected == got);
  EXPECT_GT(faulty.io_stats(0).retries, 0u);
}

TEST(Checkpoint, RejectsResumeWithoutCheckpointing)
{
  auto cfg = ckpt_cfg();
  cfg.checkpointing = false;
  em::EmEngine e(cfg);
  algo::SampleSortProgram<std::uint64_t> prog;
  EXPECT_THROW(e.resume(prog), Error);
}

TEST(Checkpoint, ResumeRejectsOverwrittenCommitRecord) {
  // A crash leaves a committed boundary; if its record is then destroyed,
  // resume() must refuse it by its CRC32C trailer, typed, before loading a
  // single store directory from it.
  const auto cfg = ckpt_cfg();
  const auto keys = sort_keys_input(500);
  algo::SampleSortProgram<std::uint64_t> prog;
  em::EmEngine ref(cfg);
  (void)ref.run(prog, keyed_inputs(4, keys));

  auto crash_cfg = cfg;
  crash_cfg.fault.crash_after_ops =
      ref.last_result().io_per_step.front().total_ops() + 1;
  em::EmEngine e(crash_cfg);
  EXPECT_THROW(e.run(prog, keyed_inputs(4, keys)), IoError);
  ASSERT_TRUE(e.has_checkpoint());
  e.disarm_faults();
  overwrite_every_block(e.disk_array(0));
  try {
    (void)e.resume(prog);
    FAIL() << "resume() accepted an overwritten commit record";
  } catch (const IoError& err) {
    EXPECT_EQ(err.kind(), IoErrorKind::kCorruption);
    EXPECT_NE(std::string(err.what()).find("commit record checksum mismatch"),
              std::string::npos)
        << err.what();
  }
}

TEST(Corruption, OverwrittenContextCountsThrowTyped) {
  // A context blob's input and output counts come off disk. With checksums
  // off nothing below the engine notices a trashed block, so a count of
  // 2^64 - 1 must run the archive out (typed Error) rather than size a
  // buffer from it (an untyped std::length_error).
  cgm::MachineConfig cfg;
  cfg.v = 4;
  cfg.p = 1;
  cfg.disk.num_disks = 2;
  cfg.disk.block_bytes = 512;
  algo::SampleSortProgram<std::uint64_t> prog;
  em::EmEngine e(cfg);
  e.start(prog, keyed_inputs(4, sort_keys_input(4096)));
  overwrite_every_block(e.disk_array(0));
  EXPECT_THROW((void)e.step(), Error);
}

TEST(Checkpoint, SingleCopyMatrixIncompatibleWithCheckpointing) {
  auto cfg = ckpt_cfg();
  cfg.layout = cgm::MsgLayout::kStaggeredMatrix;
  cfg.balanced_routing = true;
  cfg.single_copy_matrix = true;
  EXPECT_THROW(cfg.validate(), Error);
}

namespace {

// The single-copy matrix exists only in the staggered layout, and only for
// the sequential simulation: validate() rejects both misuses up front with
// a typed kConfig, before an engine is built.
void expect_config_error(const cgm::MachineConfig& cfg) {
  try {
    cfg.validate();
    ADD_FAILURE() << "expected IoError(kConfig)";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kConfig) << e.what();
  }
  EXPECT_THROW(em::EmEngine{cfg}, IoError);
}

}  // namespace

TEST(Checkpoint, SingleCopyMatrixRequiresStaggeredLayout) {
  cgm::MachineConfig cfg;
  cfg.v = 4;
  cfg.layout = cgm::MsgLayout::kChained;
  cfg.single_copy_matrix = true;
  expect_config_error(cfg);
}

TEST(Checkpoint, SingleCopyMatrixRequiresOneRealProcessor) {
  cgm::MachineConfig cfg;
  cfg.v = 4;
  cfg.p = 2;
  cfg.layout = cgm::MsgLayout::kStaggeredMatrix;
  cfg.staggered_slot_bytes = 1 << 12;
  cfg.single_copy_matrix = true;
  expect_config_error(cfg);
}

// ----------------------------------------------- membership (rejoin) sweep --

TEST(MembershipSweep, KillRejoinKillBitIdenticalAcrossModes) {
  // Acceptance sweep for elastic membership: a p=4 sort where proc 1 dies
  // mid-run, rejoins three supersteps later, and proc 2 dies after that.
  // Every (use_threads, io_threads) mode must complete with output
  // bit-identical to the clean run, and the whole membership history —
  // the epoch, and every field of the run check (fail-over and rejoin
  // counts, per-step wire and I/O accounting) — must repeat across the
  // modes themselves: the epoch-keyed fault-coin streams make kill ->
  // rejoin -> kill execution-order free.
  const auto keys = sort_keys_input(2000);
  algo::SampleSortProgram<std::uint64_t> prog;

  auto base_cfg = [](bool threads, std::uint32_t io_threads) {
    cgm::MachineConfig cfg;
    cfg.v = 8;
    cfg.p = 4;
    cfg.disk.num_disks = 4;
    cfg.disk.block_bytes = 512;
    cfg.checkpointing = true;
    cfg.net.enabled = true;
    cfg.use_threads = threads;
    cfg.io_threads = io_threads;
    return cfg;
  };
  em::EmEngine ref(base_cfg(false, 0));
  const auto expected = ref.run(prog, keyed_inputs(8, keys));

  struct Probe {
    std::vector<cgm::PartitionSet> out;
    cgm::RunResult run;
    std::uint64_t epoch = 0;
    bool returner_alive = false;
  };
  auto run_mode = [&](bool threads, std::uint32_t io_threads) {
    auto cfg = base_cfg(threads, io_threads);
    cfg.net.failover = true;
    cfg.net.fault.fail_stops = {{1, 2}, {2, 7}};
    cfg.net.fault.rejoins = {{1, 5}};
    em::EmEngine e(cfg);
    Probe pr;
    pr.out = e.run(prog, keyed_inputs(8, keys));
    pr.run = e.last_result();
    pr.epoch = e.membership_epoch();
    pr.returner_alive = e.alive(1);
    return pr;
  };

  Probe base;
  bool have_base = false;
  for (bool threads : {false, true}) {
    for (std::uint32_t io_threads : {0u, 2u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " io_threads=" + std::to_string(io_threads));
      auto pr = run_mode(threads, io_threads);
      EXPECT_TRUE(expected == pr.out);
      EXPECT_GE(pr.run.failovers, 1u);
      EXPECT_EQ(pr.run.rejoins, 1u);
      EXPECT_TRUE(pr.returner_alive);
      EXPECT_GE(pr.epoch, 2u);  // at least the death and the rejoin
      if (!have_base) {
        base = std::move(pr);
        have_base = true;
        continue;
      }
      EXPECT_EQ(cgm::run_mismatches(base.run, pr.run), "");
      EXPECT_EQ(pr.epoch, base.epoch);
    }
  }
}

// ------------------------------------------------------- total wipe-out ---

TEST(ScheduleWipeOut, DiskCrashWipeOutResumesBitIdenticalUnderEverySchedule) {
  // Total wipe-out hardening: when every real processor dies in the same
  // window, the run aborts typed — but the engine resets the membership to
  // the fresh-run shape (everybody nominally alive, groups home, links
  // reset), and since commit records always live on each group's original
  // disks, a disarm + resume() replays from the intact checkpoint to
  // bit-identical output. The guarantee must hold identically under every
  // collective schedule (the epoch bump re-derives it over the full set).
  const auto keys = sort_keys_input(1200);
  algo::SampleSortProgram<std::uint64_t> prog;

  auto base_cfg = [](routing::ScheduleKind kind) {
    cgm::MachineConfig cfg;
    cfg.v = 8;
    cfg.p = 2;
    cfg.disk.num_disks = 4;
    cfg.disk.block_bytes = 512;
    cfg.checkpointing = true;
    cfg.net.enabled = true;
    cfg.net.failover = true;
    cfg.net.schedule = kind;
    return cfg;
  };
  em::EmEngine ref(base_cfg(routing::ScheduleKind::kDirect));
  const auto expected = ref.run(prog, keyed_inputs(8, keys));
  const auto& steps = ref.last_result().io_per_step;
  ASSERT_GE(steps.size(), 2u);

  for (routing::ScheduleKind kind :
       {routing::ScheduleKind::kDirect, routing::ScheduleKind::kRing,
        routing::ScheduleKind::kTree, routing::ScheduleKind::kHyperSystolic}) {
    SCOPED_TRACE(routing::to_string(kind));
    std::uint32_t wiped = 0;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i + 1 < steps.size() && wiped == 0; ++i) {
      cum += steps[i].total_ops();
      auto cfg = base_cfg(kind);
      // Per-proc op counters; both processors do roughly symmetric I/O, so
      // half the cumulative count lands the crash mid-run on both machines.
      cfg.fault.crash_after_ops = cum / 2 + 1;
      em::EmEngine e(cfg);
      bool crashed = false;
      try {
        (void)e.run(prog, keyed_inputs(8, keys));
      } catch (const IoError& err) {
        EXPECT_EQ(err.kind(), IoErrorKind::kCrash);
        crashed = true;
      }
      if (!crashed || !e.has_checkpoint()) continue;
      // A thrown crash with fail-over on and a valid commit means no
      // survivor remained; the hardening must have reset the membership.
      EXPECT_TRUE(e.alive(0));
      EXPECT_TRUE(e.alive(1));
      EXPECT_EQ(e.group_host(0), 0u);
      EXPECT_EQ(e.group_host(1), 1u);
      e.disarm_faults();
      const auto got = e.resume(prog);
      EXPECT_TRUE(expected == got) << "boundary " << i;
      ++wiped;
    }
    EXPECT_GE(wiped, 1u) << "sweep never produced a total wipe-out";
  }
}

TEST(ScheduleWipeOut, NetFailStopWipeOutKeepsTypedFailureUnderEverySchedule) {
  // The fail-stop flavor: the network plan kills every processor, so even
  // after the membership reset a resume() replays into the same detector
  // verdict — the run must keep failing typed (no hang, no bit-rot), under
  // every collective schedule.
  const auto keys = sort_keys_input(1200);
  algo::SampleSortProgram<std::uint64_t> prog;
  for (routing::ScheduleKind kind :
       {routing::ScheduleKind::kDirect, routing::ScheduleKind::kRing,
        routing::ScheduleKind::kTree, routing::ScheduleKind::kHyperSystolic}) {
    SCOPED_TRACE(routing::to_string(kind));
    cgm::MachineConfig cfg;
    cfg.v = 8;
    cfg.p = 2;
    cfg.disk.num_disks = 4;
    cfg.disk.block_bytes = 512;
    cfg.checkpointing = true;
    cfg.net.enabled = true;
    cfg.net.failover = true;
    cfg.net.schedule = kind;
    cfg.net.fault.fail_stops = {{0, 2}, {1, 2}};
    em::EmEngine e(cfg);
    EXPECT_THROW((void)e.run(prog, keyed_inputs(8, keys)), Error);
    if (!e.has_checkpoint()) continue;
    EXPECT_TRUE(e.alive(0));
    EXPECT_TRUE(e.alive(1));
    EXPECT_THROW((void)e.resume(prog), Error);
  }
}
