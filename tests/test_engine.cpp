// Engine-level properties: native/EM equivalence, context and message
// stores, layout parallelism (Fig. 2), Observation 2 single-copy reuse,
// Lemma 2 preconditions, the memory-residency check, and the headline
// O(N/(pDB)) I/O linearity of the simulated sort.
#include <gtest/gtest.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "algo/sort.h"
#include "cgm/machine.h"
#include "cgm/native_engine.h"
#include "cgm/proc_ctx.h"
#include "emcgm/context_store.h"
#include "emcgm/em_engine.h"
#include "emcgm/message_store.h"
#include "util/rng.h"

using namespace emcgm;

namespace {

pdm::DiskArray make_array(std::uint32_t D, std::size_t B,
                          std::uint32_t io_threads = 0) {
  pdm::DiskArrayOptions opts;
  opts.io_threads = io_threads;
  return pdm::DiskArray(
      std::make_unique<pdm::MemoryBackend>(pdm::DiskGeometry{D, B}), opts);
}

// The store tests run on both array paths: every op inline on the calling
// thread (io_threads 0) and on executor workers with write-behind (2).
constexpr std::uint32_t kArrayPaths[] = {0, 2};

std::vector<std::byte> blob(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 13 + seed) & 0xFF);
  }
  return v;
}

struct RoundCount {
  std::uint64_t rounds = 0;
  auto fields() { return std::tie(rounds); }
};

/// Records the kernel thread id of every round() call. Each round but the
/// last sends one message to the next virtual processor, so every
/// superstep has a delivery barrier.
class ThreadIdProbe final : public cgm::ProgramT<RoundCount> {
 public:
  explicit ThreadIdProbe(std::uint64_t rounds) : rounds_(rounds) {}

  std::string name() const override { return "thread_id_probe"; }

  void round(cgm::ProcCtx& ctx, RoundCount& st) const override {
    {
      // Kernel ids: a pthread id may be reused once its thread is joined.
      std::lock_guard<std::mutex> lk(mu_);
      tids_.insert(static_cast<long>(::syscall(SYS_gettid)));
      ++calls_;
    }
    ++st.rounds;
    if (!done(ctx, st)) {
      ctx.send_vec((ctx.pid() + 1) % ctx.nprocs(),
                   std::vector<std::uint64_t>{st.rounds});
    }
  }

  bool done(const cgm::ProcCtx&, const RoundCount& st) const override {
    return st.rounds >= rounds_;
  }

  std::set<long> tids() const {
    std::lock_guard<std::mutex> lk(mu_);
    return tids_;
  }
  std::uint64_t calls() const {
    std::lock_guard<std::mutex> lk(mu_);
    return calls_;
  }

 private:
  std::uint64_t rounds_;
  mutable std::mutex mu_;
  mutable std::set<long> tids_;
  mutable std::uint64_t calls_ = 0;
};

}  // namespace

// ----------------------------------------------------------- ContextStore --

TEST(ContextStore, RoundTripsVaryingSizes) {
  // Plain read() and prefetch()-then-read() must return the same bytes.
  for (std::uint32_t T : kArrayPaths) {
    for (bool prefetch : {false, true}) {
      SCOPED_TRACE("io_threads=" + std::to_string(T) +
                   (prefetch ? " prefetch" : " read"));
      auto a = make_array(4, 128, T);
      pdm::TrackSpace space;
      em::ContextStore store(a, space, 3);
      for (int step = 0; step < 5; ++step) {
        std::vector<std::vector<std::byte>> ctxs;
        for (std::uint32_t j = 0; j < 3; ++j) {
          ctxs.push_back(blob(17 + 97 * j * (step + 1), static_cast<std::uint8_t>(step * 3 + j)));
          store.write(j, ctxs.back());
        }
        store.flip();
        if (prefetch) {
          for (std::uint32_t j = 0; j < 3; ++j) store.prefetch(j);
        }
        for (std::uint32_t j = 0; j < 3; ++j) {
          const em::ContextBlob got = store.read(j);
          EXPECT_EQ(std::vector<std::byte>(got.begin(), got.end()), ctxs[j])
              << "step " << step << " proc " << j;
        }
      }
    }
  }
}

TEST(ContextStore, FlipRequiresAllWritten) {
  auto a = make_array(2, 64);
  pdm::TrackSpace space;
  em::ContextStore store(a, space, 2);
  store.write(0, blob(10, 1));
  EXPECT_THROW(store.flip(), Error);
}

TEST(ContextStore, DoubleWriteRejected) {
  auto a = make_array(2, 64);
  pdm::TrackSpace space;
  em::ContextStore store(a, space, 2);
  store.write(0, blob(10, 1));
  EXPECT_THROW(store.write(0, blob(10, 2)), Error);
}

TEST(ContextStore, StripedIoIsFullyParallel) {
  const std::uint32_t D = 4;
  auto a = make_array(D, 64);
  pdm::TrackSpace space;
  em::ContextStore store(a, space, 1);
  const std::size_t bytes = 64 * 12;  // 12 blocks = 3 fully-striped writes
  store.write(0, blob(bytes, 7));
  EXPECT_EQ(a.stats().write_ops, 3u);
  EXPECT_EQ(a.stats().full_stripe_ops, 3u);
  store.flip();
  store.read(0);
  EXPECT_EQ(a.stats().read_ops, 3u);
}

// ----------------------------------------------------------- MessageStore --

// Parameterized over the layout; each test also runs on both array paths
// (kArrayPaths), in-body so the suite's test names stay put.
class MessageStoreSuite : public ::testing::TestWithParam<cgm::MsgLayout> {};

TEST_P(MessageStoreSuite, DeliversAcrossSupersteps) {
  for (std::uint32_t T : kArrayPaths) {
    SCOPED_TRACE("io_threads=" + std::to_string(T));
    auto a = make_array(4, 64, T);
    pdm::TrackSpace space;
    em::MessageStoreConfig cfg;
    cfg.v = 4;
    cfg.local_base = 0;
    cfg.nlocal = 4;
    cfg.slot_bytes = 512;
    auto store = em::make_message_store(GetParam(), a, space, cfg);

    std::vector<cgm::Message> batch;
    for (std::uint32_t s = 0; s < 4; ++s) {
      for (std::uint32_t d = 0; d < 4; ++d) {
        batch.push_back(cgm::Message{s, d, blob(30 + 40 * s + d, static_cast<std::uint8_t>(s * 4 + d))});
      }
    }
    store->write_messages(batch);
    store->flip();
    for (std::uint32_t d = 0; d < 4; ++d) {
      if (d % 2 == 1) store->prefetch_incoming(d);  // both read paths
      auto in = store->read_incoming(d);
      ASSERT_EQ(in.size(), 4u);
      for (std::uint32_t s = 0; s < 4; ++s) {
        EXPECT_EQ(in[s].src, s);
        EXPECT_EQ(in[s].payload, blob(30 + 40 * s + d, static_cast<std::uint8_t>(s * 4 + d)));
      }
    }
  }
}

TEST_P(MessageStoreSuite, EmptyAndConsumedInboxes) {
  for (std::uint32_t T : kArrayPaths) {
    SCOPED_TRACE("io_threads=" + std::to_string(T));
    auto a = make_array(2, 64, T);
    pdm::TrackSpace space;
    em::MessageStoreConfig cfg;
    cfg.v = 2;
    cfg.nlocal = 2;
    cfg.slot_bytes = 256;
    auto store = em::make_message_store(GetParam(), a, space, cfg);
    EXPECT_TRUE(store->read_incoming(0).empty());
    std::vector<cgm::Message> batch{cgm::Message{0, 1, blob(20, 9)}};
    store->write_messages(batch);
    store->flip();
    EXPECT_EQ(store->read_incoming(1).size(), 1u);
    EXPECT_TRUE(store->read_incoming(1).empty());  // consumed
  }
}

TEST_P(MessageStoreSuite, RejectsNonLocalDestination) {
  for (std::uint32_t T : kArrayPaths) {
    SCOPED_TRACE("io_threads=" + std::to_string(T));
    auto a = make_array(2, 64, T);
    pdm::TrackSpace space;
    em::MessageStoreConfig cfg;
    cfg.v = 4;
    cfg.local_base = 2;
    cfg.nlocal = 2;
    cfg.slot_bytes = 256;
    auto store = em::make_message_store(GetParam(), a, space, cfg);
    std::vector<cgm::Message> batch{cgm::Message{0, 0, blob(8, 1)}};
    EXPECT_THROW(store->write_messages(batch), Error);
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, MessageStoreSuite,
                         ::testing::Values(cgm::MsgLayout::kStaggeredMatrix,
                                           cgm::MsgLayout::kChained),
                         [](const auto& info) {
                           return info.param ==
                                          cgm::MsgLayout::kStaggeredMatrix
                                      ? "staggered"
                                      : "chained";
                         });

TEST(MessageStore, StaggeredRejectsOversizedMessage) {
  auto a = make_array(2, 64);
  pdm::TrackSpace space;
  em::MessageStoreConfig cfg;
  cfg.v = 2;
  cfg.nlocal = 2;
  cfg.slot_bytes = 100;
  auto store = em::make_message_store(cgm::MsgLayout::kStaggeredMatrix, a,
                                      space, cfg);
  std::vector<cgm::Message> batch{cgm::Message{0, 1, blob(101, 2)}};
  EXPECT_THROW(store->write_messages(batch), Error);
}

TEST(MessageStore, StaggeredWritesAreNearFullyParallel) {
  // Fig. 2 property: a source's whole outbox (one slot-sized message per
  // destination) lands in ceil(blocks/D) parallel writes because slot
  // starts are staggered across the disks.
  const std::uint32_t D = 4;
  auto a = make_array(D, 64);
  pdm::TrackSpace space;
  em::MessageStoreConfig cfg;
  cfg.v = 8;
  cfg.nlocal = 8;
  cfg.slot_bytes = 3 * 64;  // 3 blocks per slot, coprime with D
  auto store = em::make_message_store(cgm::MsgLayout::kStaggeredMatrix, a,
                                      space, cfg);
  // Every source's outbox (one slot-sized message per destination) must
  // write fully parallel despite all its blocks living in different
  // destination bands.
  for (std::uint32_t s = 0; s < 8; ++s) {
    std::vector<cgm::Message> batch;
    for (std::uint32_t d = 0; d < 8; ++d) {
      batch.push_back(
          cgm::Message{s, d, blob(3 * 64, static_cast<std::uint8_t>(s * 8 + d))});
    }
    const auto before = a.stats().write_ops;
    store->write_messages(batch);
    EXPECT_EQ(a.stats().write_ops - before, 8 * 3 / D) << "src " << s;
  }
  EXPECT_EQ(a.stats().full_stripe_ops, a.stats().write_ops);
  // Reading one destination's inbox (its whole band, v slots) is a
  // consecutive run: ceil(v * b' / D) parallel ops.
  store->flip();
  for (std::uint32_t d = 0; d < 8; ++d) {
    const auto before = a.stats().read_ops;
    auto in = store->read_incoming(d);
    ASSERT_EQ(in.size(), 8u);
    EXPECT_EQ(a.stats().read_ops - before, 8 * 3 / D) << "dst " << d;
    for (std::uint32_t s = 0; s < 8; ++s) {
      EXPECT_EQ(in[s].payload, blob(3 * 64, static_cast<std::uint8_t>(s * 8 + d)));
    }
  }
}

TEST(MessageStore, ChainedWritesAreFullyParallel) {
  const std::uint32_t D = 4;
  auto a = make_array(D, 64);
  pdm::TrackSpace space;
  em::MessageStoreConfig cfg;
  cfg.v = 4;
  cfg.nlocal = 4;
  auto store =
      em::make_message_store(cgm::MsgLayout::kChained, a, space, cfg);
  std::vector<cgm::Message> batch;
  for (std::uint32_t d = 0; d < 4; ++d) {
    batch.push_back(cgm::Message{1, d, blob(5 * 64, static_cast<std::uint8_t>(d))});
  }
  store->write_messages(batch);
  EXPECT_EQ(a.stats().write_ops, 5u);  // 20 blocks / 4 disks
}

TEST(MessageStore, SingleCopyMatrixReusesSpace) {
  // Observation 2: with single_copy the matrix occupies one region's worth
  // of tracks; double-buffered needs two. Compare high-water track usage
  // after several supersteps of identical traffic.
  auto run = [&](bool single_copy) {
    auto a = make_array(2, 64);
    pdm::TrackSpace space;
    em::MessageStoreConfig cfg;
    cfg.v = 4;
    cfg.nlocal = 4;
    cfg.slot_bytes = 2 * 64;
    cfg.single_copy = single_copy;
    auto store = em::make_message_store(cgm::MsgLayout::kStaggeredMatrix, a,
                                        space, cfg);
    for (int step = 0; step < 6; ++step) {
      // Algorithm-2 order: each vproc reads its inbox, then writes its
      // outbox.
      for (std::uint32_t j = 0; j < 4; ++j) {
        auto in = store->read_incoming(j);
        if (step > 0) {
          EXPECT_EQ(in.size(), 4u) << "step " << step;
        }
        std::vector<cgm::Message> outbox;
        for (std::uint32_t d = 0; d < 4; ++d) {
          outbox.push_back(
              cgm::Message{j, d, blob(100, static_cast<std::uint8_t>(step * 16 + j * 4 + d))});
        }
        store->write_messages(outbox);
      }
      store->flip();
    }
    return space.high_water();
  };
  const auto single = run(true);
  const auto dbl = run(false);
  EXPECT_LT(single, dbl);
  EXPECT_LE(single * 2, dbl + 2);  // within rounding of exactly half
}

// ------------------------------------------------------------ EmEngine --

TEST(EmEngine, LemmaTwoPreconditionEnforced) {
  cgm::MachineConfig cfg;
  cfg.v = 8;
  cfg.disk.block_bytes = 4096;
  cfg.layout = cgm::MsgLayout::kStaggeredMatrix;
  cfg.balanced_routing = true;  // derived slot requires the Lemma 2 floor
  cgm::Machine m(cgm::EngineKind::kEm, cfg);
  auto keys = random_keys(1, 64);  // far below v^2 * B
  EXPECT_THROW(algo::sort_keys(m, keys), Error);
}

TEST(EmEngine, StaggeredWithoutBalancingNeedsExplicitSlot) {
  cgm::MachineConfig cfg;
  cfg.v = 4;
  cfg.layout = cgm::MsgLayout::kStaggeredMatrix;
  cfg.balanced_routing = false;
  cgm::Machine m(cgm::EngineKind::kEm, cfg);
  auto keys = random_keys(2, 4096);
  EXPECT_THROW(algo::sort_keys(m, keys), Error);
  cfg.staggered_slot_bytes = 1 << 16;
  cgm::Machine m2(cgm::EngineKind::kEm, cfg);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(algo::sort_keys(m2, keys), expect);
}

TEST(EmEngine, MemoryLimitEnforced) {
  cgm::MachineConfig cfg;
  cfg.v = 2;
  cfg.memory_bytes = 1024;  // far below what a vproc needs for N=8192
  cgm::Machine m(cgm::EngineKind::kEm, cfg);
  auto keys = random_keys(3, 8192);
  EXPECT_THROW(algo::sort_keys(m, keys), Error);
  // On executor workers with a deep prefetch window the failed pass leaves
  // reads in flight — slowed here by retried transient faults — and
  // tearing the engine down must wait for them before the stores free
  // their buffers (the sanitizer build checks the teardown).
  cfg.v = 16;
  cfg.disk.block_bytes = 128;
  cfg.io_threads = 4;
  cfg.prefetch_depth = 8;
  cfg.fault.transient_read_prob = 0.2;
  cfg.retry.max_attempts = 1000;
  cfg.retry.sleep = [](std::uint64_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };
  cgm::Machine async(cgm::EngineKind::kEm, cfg);
  EXPECT_THROW(algo::sort_keys(async, keys), Error);
}

TEST(EmEngine, BalancedRoutingDoublesCommSteps) {
  // Both engines step the same superstep protocol: every round but the
  // final one ends in one delivery, two under balanced routing, and each
  // delivery is one comm.steps row. Balancing adds no application round.
  for (auto kind : {cgm::EngineKind::kNative, cgm::EngineKind::kEm}) {
    std::uint64_t direct_rounds = 0;
    for (bool balanced : {false, true}) {
      cgm::MachineConfig cfg;
      cfg.v = 4;
      cfg.balanced_routing = balanced;
      cgm::Machine m(kind, cfg);
      algo::sort_keys(m, random_keys(4, 2000));
      const cgm::RunResult& r = m.last_result();
      const std::string where =
          std::string(kind == cgm::EngineKind::kEm ? "em" : "native") +
          (balanced ? " balanced" : " direct");
      ASSERT_GT(r.app_rounds, 1u) << where;
      if (!balanced) direct_rounds = r.app_rounds;
      EXPECT_EQ(r.app_rounds, direct_rounds) << where;
      EXPECT_EQ(r.comm_steps, r.comm.steps.size()) << where;
      EXPECT_EQ(r.comm_steps, (balanced ? 2 : 1) * (r.app_rounds - 1))
          << where;
    }
  }
}

TEST(EmEngine, FileBackendMatchesMemoryBackend) {
  auto keys = random_keys(5, 3000);
  cgm::MachineConfig cfg;
  cfg.v = 4;
  cgm::Machine mem(cgm::EngineKind::kEm, cfg);
  cfg.backend = pdm::BackendKind::kFile;
  cfg.file_dir = "/tmp/emcgm_engine_test";
  cgm::Machine file(cgm::EngineKind::kEm, cfg);
  EXPECT_EQ(algo::sort_keys(mem, keys), algo::sort_keys(file, keys));
  EXPECT_EQ(cgm::run_mismatches(mem.total(), file.total()), "");
}

TEST(EmEngine, ThreadedMatchesSequential) {
  // use_threads must be invisible in every counted number, not just the
  // output: the run check names nothing between modes, with and without
  // the simulated network.
  auto keys = random_keys(6, 4000);
  for (std::uint32_t p : {2u, 4u}) {
    for (bool net : {false, true}) {
      cgm::MachineConfig cfg;
      cfg.v = 8;
      cfg.p = p;
      cfg.net.enabled = net;
      cgm::Machine seq(cgm::EngineKind::kEm, cfg);
      cfg.use_threads = true;
      cgm::Machine thr(cgm::EngineKind::kEm, cfg);
      EXPECT_EQ(algo::sort_keys(seq, keys), algo::sort_keys(thr, keys))
          << "p=" << p << " net=" << net;
      EXPECT_EQ(cgm::run_mismatches(seq.total(), thr.total()), "")
          << "p=" << p << " net=" << net;
    }
  }
}

TEST(EmEngine, HostWorkersLiveAsLongAsTheEngine) {
  // With use_threads the engine keeps p workers (the caller and p - 1
  // threads) for its lifetime, so every superstep's hosts run on the same
  // p kernel threads, not on fresh ones per phase.
  constexpr std::uint64_t kRounds = 6;
  cgm::MachineConfig cfg;
  cfg.v = 8;
  cfg.p = 4;
  cfg.use_threads = true;
  em::EmEngine engine(cfg);
  ThreadIdProbe prog(kRounds);
  engine.run(prog, {});
  EXPECT_EQ(prog.calls(), kRounds * cfg.v);
  EXPECT_EQ(engine.last_result().app_rounds, kRounds);
  EXPECT_LE(prog.tids().size(), 4u);
}

TEST(EmEngine, MultiProcessorSplitsIoAcrossRealProcs) {
  cgm::MachineConfig cfg;
  cfg.v = 8;
  cfg.p = 4;
  cfg.disk.num_disks = 2;
  cfg.disk.block_bytes = 256;
  em::EmEngine engine(cfg);
  algo::SampleSortProgram<std::uint64_t> prog;
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(cgm::even_chunks<std::uint64_t>(random_keys(7, 8192), 8));
  engine.run(prog, std::move(inputs));
  // Every real processor's disks saw comparable traffic.
  std::uint64_t lo = ~0ull, hi = 0;
  for (std::uint32_t r = 0; r < 4; ++r) {
    const auto ops = engine.io_stats(r).total_ops();
    lo = std::min(lo, ops);
    hi = std::max(hi, ops);
  }
  EXPECT_GT(lo, 0u);
  EXPECT_LT(static_cast<double>(hi), 1.5 * static_cast<double>(lo));
}

// --------------------------------------------------- headline I/O property --

TEST(IoComplexity, SortOpsLinearInN) {
  // Invariant 5 of DESIGN.md: measured parallel I/O ops / (N/(DB)) bounded
  // by a constant across an N sweep — the log factor is gone.
  const std::uint32_t D = 4;
  const std::size_t B = 1024;
  const std::size_t items_per_block = B / sizeof(std::uint64_t);
  double prev_ratio = 0;
  for (std::size_t n : {1u << 14, 1u << 15, 1u << 16, 1u << 17}) {
    cgm::MachineConfig cfg;
    cfg.v = 8;
    cfg.disk.num_disks = D;
    cfg.disk.block_bytes = B;
    cgm::Machine m(cgm::EngineKind::kEm, cfg);
    auto keys = random_keys(100 + n, n);
    auto sorted = algo::sort_keys(m, keys);
    ASSERT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
    const double stream = static_cast<double>(n) / items_per_block / D;
    const double ratio = static_cast<double>(m.total().io.total_ops()) / stream;
    EXPECT_LT(ratio, 40.0) << "n=" << n;
    if (prev_ratio > 0) {
      EXPECT_LT(ratio, prev_ratio * 1.3)
          << "ratio must not grow with N (n=" << n << ")";
    }
    prev_ratio = ratio;
  }
}

TEST(IoComplexity, MoreDisksFewerOps) {
  const std::size_t n = 1u << 16;
  auto keys = random_keys(11, n);
  std::uint64_t prev = ~0ull;
  for (std::uint32_t D : {1u, 2u, 4u, 8u}) {
    cgm::MachineConfig cfg;
    cfg.v = 8;
    cfg.disk.num_disks = D;
    cfg.disk.block_bytes = 512;
    cgm::Machine m(cgm::EngineKind::kEm, cfg);
    algo::sort_keys(m, keys);
    const auto ops = m.total().io.total_ops();
    EXPECT_LT(ops, prev) << "D=" << D;
    prev = ops;
  }
}

// ------------------------------------------------------- engine equivalence --

TEST(Equivalence, SortAllConfigsAgree) {
  // v = 16 and 32 run balanced routing on messages of several 16 x 16
  // byte tiles, v = 6 on the row loop alone.
  struct Case {
    std::uint32_t v;
    std::size_t n;
    std::vector<bool> balanced;
    std::vector<cgm::MsgLayout> layouts;
    std::vector<std::uint32_t> ps;
  };
  const Case cases[] = {
      {6, 6000, {false, true},
       {cgm::MsgLayout::kChained, cgm::MsgLayout::kStaggeredMatrix},
       {1, 2, 3}},
      {16, 1 << 15, {true}, {cgm::MsgLayout::kChained}, {1, 2}},
      {32, 1 << 17, {true}, {cgm::MsgLayout::kChained}, {1, 2}},
  };
  for (const Case& c : cases) {
    const auto keys = random_keys(12, c.n);
    auto want = keys;
    std::sort(want.begin(), want.end());
    for (bool balanced : c.balanced) {
      cgm::MachineConfig base;
      base.v = c.v;
      base.balanced_routing = balanced;
      cgm::Machine native(cgm::EngineKind::kNative, base);
      EXPECT_EQ(algo::sort_keys(native, keys), want)
          << "native v=" << c.v << " balanced=" << balanced;
      for (auto layout : c.layouts) {
        for (std::uint32_t p : c.ps) {
          cgm::MachineConfig cfg = base;
          cfg.p = p;
          cfg.layout = layout;
          if (layout == cgm::MsgLayout::kStaggeredMatrix) {
            cfg.staggered_slot_bytes = 1 << 16;
          }
          // p > 1 configs also sweep the threaded driver; both modes must
          // agree with the native engine, and the run check must name
          // nothing between them.
          std::optional<cgm::RunResult> serial;
          for (bool threads : {false, true}) {
            if (threads && p == 1) continue;
            cfg.use_threads = threads;
            cgm::Machine m(cgm::EngineKind::kEm, cfg);
            EXPECT_EQ(algo::sort_keys(m, keys), want)
                << "v=" << c.v << " balanced=" << balanced << " p=" << p
                << " threads=" << threads;
            if (!threads) {
              serial = m.total();
            } else {
              EXPECT_EQ(cgm::run_mismatches(*serial, m.total()), "")
                  << "v=" << c.v << " balanced=" << balanced << " p=" << p;
            }
          }
        }
      }
    }
  }
}

TEST(EmEngine, PerSuperstepIoTraceSumsToTotal) {
  cgm::MachineConfig cfg;
  cfg.v = 8;
  cfg.p = 2;
  cfg.balanced_routing = true;
  cgm::Machine m(cgm::EngineKind::kEm, cfg);
  algo::sort_keys(m, random_keys(21, 4096));
  const auto& res = m.last_result();
  ASSERT_FALSE(res.io_per_step.empty());
  pdm::IoStats sum;
  for (const auto& s : res.io_per_step) sum += s;
  EXPECT_EQ(sum, res.io);
  // Every computation superstep moved data (contexts at minimum).
  std::size_t nonzero = 0;
  for (const auto& s : res.io_per_step) {
    if (s.total_ops() > 0) ++nonzero;
  }
  EXPECT_GE(nonzero, res.app_rounds);
}

TEST(Equivalence, SingleCopyMatrixAgrees) {
  auto keys = random_keys(13, 4096);
  cgm::MachineConfig cfg;
  cfg.v = 4;
  cfg.layout = cgm::MsgLayout::kStaggeredMatrix;
  cfg.staggered_slot_bytes = 1 << 16;
  cgm::Machine dbl(cgm::EngineKind::kEm, cfg);
  cfg.single_copy_matrix = true;
  cgm::Machine single(cgm::EngineKind::kEm, cfg);
  EXPECT_EQ(algo::sort_keys(dbl, keys), algo::sort_keys(single, keys));
}

TEST(RunCheck, NamesEachPlantedDifferenceAndNeverWallTime) {
  cgm::RunResult base;
  base.comm.steps.resize(2);
  base.io_per_step.resize(3);
  const std::pair<void (*)(cgm::RunResult&), const char*> cases[] = {
      {[](cgm::RunResult& r) { r.io.fsyncs = 7; }, "io"},
      {[](cgm::RunResult& r) { r.io_per_step[1].blocks_read = 4; },
       "io_per_step[1]"},
      {[](cgm::RunResult& r) { r.io_per_step.pop_back(); },
       "io_per_step rows 3 != 2"},
      {[](cgm::RunResult& r) { r.comm.steps[1].wire_bytes = 9; },
       "comm.steps[1]"},
      {[](cgm::RunResult& r) { r.comm_steps = 2; }, "comm_steps 0 != 2"},
      {[](cgm::RunResult& r) { r.net.heartbeats_sent = 3; }, "net"},
      {[](cgm::RunResult& r) { r.app_rounds = 5; }, "app_rounds 0 != 5"},
      {[](cgm::RunResult& r) { r.failovers = 1; }, "failovers 0 != 1"},
      {[](cgm::RunResult& r) { r.rejoins = 1; }, "rejoins 0 != 1"},
      {[](cgm::RunResult& r) {
         r.app_rounds = 1;
         r.net.migration_bytes = 64;
       },
       "app_rounds 0 != 1; net"},
      {[](cgm::RunResult& r) { r.wall_s = 1.5; }, ""},
  };
  for (const auto& [plant, want] : cases) {
    cgm::RunResult r = base;
    plant(r);
    EXPECT_EQ(cgm::run_mismatches(base, r), want);
  }
}
