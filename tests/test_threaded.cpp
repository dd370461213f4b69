// Threaded-determinism sweeps. Two layers:
//
//  * Mailbox: SimNetwork's round (begin_round/post/finish_sender/collect/
//    abort_round) returns the same streams and statistics however a link's
//    stream is chunked, whichever thread posts when, in whatever order the
//    senders finish (hence whichever finish simulates a pair), and however
//    far a round got before it was aborted — the pair-decomposition
//    argument of sim_network.h, tested directly. Thread on/off equality at
//    the engine level is covered by the use_threads sweeps here and in
//    test_schedule/test_net.
//
//  * ThreadedStress: seeded schedule perturbation at the engine level. Real
//    random sleeps are injected through the disk retry backoff hook (fired
//    by per-host transient disk faults), so the host threads interleave
//    differently on every seed — and the run must still converge to the
//    clean serial reference, under lossy links and under node kills.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "algo/sort.h"
#include "emcgm/em_engine.h"
#include "net/net_fault.h"
#include "net/sim_network.h"
#include "util/rng.h"

using namespace emcgm;

namespace {

std::vector<std::byte> payload_for(std::uint32_t src, std::uint32_t dst,
                                   std::uint32_t chunk, std::size_t len) {
  std::vector<std::byte> v(len);
  Rng rng((static_cast<std::uint64_t>(src) << 40) ^
          (static_cast<std::uint64_t>(dst) << 20) ^ chunk);
  for (auto& b : v) b = static_cast<std::byte>(rng.next() & 0xFF);
  return v;
}

/// Chunk c of link s -> d; three chunks make one link's stream of a round.
std::vector<std::byte> chunk_for(std::uint32_t s, std::uint32_t d,
                                 std::uint32_t c) {
  return payload_for(s, d, c, 30 + 11 * c);
}

/// What link s -> d carries in round `round`: chunks 3 round .. 3 round + 2.
std::vector<std::byte> stream_for(std::uint32_t s, std::uint32_t d,
                                  std::uint32_t round) {
  std::vector<std::byte> stream;
  for (std::uint32_t c = 3 * round; c < 3 * round + 3; ++c) {
    const auto chunk = chunk_for(s, d, c);
    stream.insert(stream.end(), chunk.begin(), chunk.end());
  }
  return stream;
}

/// Lossy links with a small MTU, so every link's stream spans frames.
net::NetConfig faulty_net(std::uint64_t seed) {
  net::NetConfig cfg;
  cfg.enabled = true;
  cfg.mtu_bytes = 40;
  cfg.fault.seed = seed;
  cfg.fault.drop_prob = 0.1;
  cfg.fault.dup_prob = 0.05;
  cfg.fault.corrupt_prob = 0.05;
  cfg.fault.reorder_prob = 0.15;
  cfg.fault.delay_prob = 0.1;
  cfg.retry.max_attempts = 16;
  return cfg;
}

std::vector<cgm::PartitionSet> sort_inputs(
    std::uint32_t v, const std::vector<std::uint64_t>& keys) {
  return {cgm::even_chunks<std::uint64_t>(keys, v)};
}

}  // namespace

// ---------------------------------------------------------- mailbox round ----

TEST(Mailbox, ChunkingAndFinishOrderLeaveRoundUnchanged) {
  // One round posts each link's stream whole and finishes the senders in
  // ascending order; the other posts it as three chunks and finishes them in
  // reverse, so a different finish completes (and simulates) each pair.
  // Chunks concatenate verbatim and a pair's timeline depends only on its two
  // streams and the fault plan, so streams and statistics must be equal.
  const std::uint32_t p = 4;
  net::SimNetwork whole(p, faulty_net(77));
  net::SimNetwork chunked(p, faulty_net(77));
  whole.begin_round();
  chunked.begin_round();
  for (std::uint32_t s = 0; s < p; ++s) {
    for (std::uint32_t d = 0; d < p; ++d) {
      if (s == d) continue;
      whole.post(s, d, stream_for(s, d, 0));
      for (std::uint32_t c = 0; c < 3; ++c) {
        chunked.post(s, d, chunk_for(s, d, c));
      }
    }
  }
  for (std::uint32_t s = 0; s < p; ++s) whole.finish_sender(s);
  for (std::uint32_t s = p; s-- > 0;) chunked.finish_sender(s);

  const auto want = whole.collect();
  const auto got = chunked.collect();
  EXPECT_EQ(want, got);
  EXPECT_EQ(whole.stats(), chunked.stats());
  EXPECT_GT(whole.stats().retransmissions, 0u);
  for (std::uint32_t s = 0; s < p; ++s) {
    for (std::uint32_t d = 0; d < p; ++d) {
      if (s != d) {
        EXPECT_EQ(want[d][s], stream_for(s, d, 0)) << s << "->" << d;
      }
    }
  }
}

TEST(Mailbox, ConcurrentPostsAreDeterministic) {
  // p poster threads, each interleaving real random sleeps between its
  // post() calls and visiting destinations in a thread-specific order, then
  // finishing — and so simulating, on its own thread, every pair its finish
  // completes. Only the per-link chunk order is fixed, and that is all the
  // mailbox contract requires: every trial must match a round posted and
  // finished from one thread in canonical order, exactly.
  const std::uint32_t p = 4;
  for (std::uint64_t trial = 0; trial < 5; ++trial) {
    net::SimNetwork ref(p, faulty_net(900 + trial));
    ref.begin_round();
    for (std::uint32_t s = 0; s < p; ++s) {
      for (std::uint32_t d = 0; d < p; ++d) {
        if (s == d) continue;
        for (std::uint32_t c = 0; c < 3; ++c) {
          ref.post(s, d, chunk_for(s, d, c));
        }
      }
    }
    for (std::uint32_t s = 0; s < p; ++s) ref.finish_sender(s);
    const auto want = ref.collect();

    net::SimNetwork nw(p, faulty_net(900 + trial));
    nw.begin_round();
    std::vector<std::thread> posters;
    for (std::uint32_t s = 0; s < p; ++s) {
      posters.emplace_back([&nw, s, trial, p] {
        Rng jitter(trial * 131 + s);
        const std::uint32_t rot =
            static_cast<std::uint32_t>((s + trial) % (p - 1));
        for (std::uint32_t k = 0; k < p - 1; ++k) {
          // Thread-specific destination order; per-link chunk order fixed.
          const std::uint32_t d = (s + 1 + (k + rot) % (p - 1)) % p;
          for (std::uint32_t c = 0; c < 3; ++c) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(jitter.next_below(80)));
            nw.post(s, d, chunk_for(s, d, c));
          }
        }
        nw.finish_sender(s);
      });
    }
    for (auto& t : posters) t.join();
    const auto got = nw.collect();
    EXPECT_EQ(want, got) << "trial " << trial;
    EXPECT_EQ(ref.stats(), nw.stats()) << "trial " << trial;
  }
}

TEST(Mailbox, AbortMatchesWhateverRanBefore) {
  // abort_round() simulates every pair that no finish has simulated yet, so
  // the coins a round consumes do not depend on how far it got. Aborting
  // after senders 0 and 1 finished (pair {0, 1} already simulated) must
  // leave the same statistics — and, after reset_links(), the same next
  // round — as aborting before any sender finished.
  const std::uint32_t p = 4;
  struct Outcome {
    net::NetStats aborted;
    net::NetStats after;
    net::LinkStreams streams;
  };
  auto post_round = [&](net::SimNetwork& nw, std::uint32_t round) {
    for (std::uint32_t s = 0; s < p; ++s) {
      for (std::uint32_t d = 0; d < p; ++d) {
        if (s != d) nw.post(s, d, stream_for(s, d, round));
      }
    }
  };
  auto run = [&](bool finish_two_first) {
    net::SimNetwork nw(p, faulty_net(4242));
    nw.begin_round();
    post_round(nw, 0);
    if (finish_two_first) {
      nw.finish_sender(0);
      nw.finish_sender(1);
    }
    nw.abort_round();
    EXPECT_FALSE(nw.round_active());
    Outcome o;
    o.aborted = nw.stats();
    nw.reset_links();
    nw.begin_round();
    post_round(nw, 1);
    for (std::uint32_t s = 0; s < p; ++s) nw.finish_sender(s);
    o.streams = nw.collect();
    o.after = nw.stats();
    return o;
  };
  const Outcome late = run(true);
  const Outcome early = run(false);
  EXPECT_GT(late.aborted.data_sent, 0u);
  EXPECT_EQ(late.aborted, early.aborted);
  EXPECT_EQ(late.after, early.after);
  EXPECT_EQ(late.streams, early.streams);
  for (std::uint32_t s = 0; s < p; ++s) {
    for (std::uint32_t d = 0; d < p; ++d) {
      if (s != d) {
        EXPECT_EQ(late.streams[d][s], stream_for(s, d, 1)) << s << "->" << d;
      }
    }
  }
}

// ----------------------------------------- schedule-perturbation stress ----

namespace {

/// Real random sleep on every disk retry backoff: transient disk faults turn
/// into schedule perturbation for the host threads. Thread-local state — the
/// hook is shared by all hosts and must not serialize them.
std::atomic<std::uint64_t> g_jitter_fired{0};

void jitter_sleep(std::uint64_t) {
  thread_local Rng rng(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
  g_jitter_fired.fetch_add(1, std::memory_order_relaxed);
  std::this_thread::sleep_for(
      std::chrono::microseconds(rng.next_below(60)));
}

cgm::MachineConfig stress_cfg(std::uint64_t seed, bool threads) {
  cgm::MachineConfig cfg;
  cfg.v = 8;
  cfg.p = 4;
  cfg.disk.num_disks = 2;
  cfg.disk.block_bytes = 512;
  cfg.checkpointing = true;
  cfg.use_threads = threads;
  cfg.net.enabled = true;
  // Per-host transient disk faults make the retry path (and with it the
  // jitter hook) actually fire; the retry budget absorbs them all.
  cfg.retry.max_attempts = 8;
  cfg.fault_per_proc.assign(4, pdm::FaultPlan{});
  for (std::uint32_t h = 0; h < 4; ++h) {
    cfg.fault_per_proc[h].seed = seed * 16 + h;
    cfg.fault_per_proc[h].transient_read_prob = 0.02;
    cfg.fault_per_proc[h].transient_write_prob = 0.02;
  }
  if (threads) cfg.retry.sleep = jitter_sleep;
  return cfg;
}

}  // namespace

TEST(ThreadedStress, LossySweepConvergesAcrossSeeds) {
  const auto keys = random_keys(2026, 2500);
  algo::SampleSortProgram<std::uint64_t> prog;

  // Clean serial reference: no disk faults, no network faults.
  cgm::MachineConfig ref_cfg;
  ref_cfg.v = 8;
  ref_cfg.p = 4;
  ref_cfg.disk.num_disks = 2;
  ref_cfg.disk.block_bytes = 512;
  ref_cfg.checkpointing = true;
  ref_cfg.net.enabled = true;
  em::EmEngine ref(ref_cfg);
  const auto expected = ref.run(prog, sort_inputs(8, keys));
  const auto ref_bytes = ref.last_result().comm.total_bytes();
  ASSERT_GT(ref_bytes, 0u);

  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    // Same faulty config run serial then threaded-with-jitter: the outputs
    // must be bit-identical and the run check must name nothing, and both
    // must converge to the clean reference's payload bytes.
    cgm::RunResult serial;
    for (bool threads : {false, true}) {
      auto cfg = stress_cfg(seed, threads);
      cfg.net.fault.seed = 1000 + seed;
      cfg.net.fault.drop_prob = 0.08;
      cfg.net.fault.dup_prob = 0.04;
      cfg.net.fault.corrupt_prob = 0.04;
      cfg.net.fault.reorder_prob = 0.08;
      cfg.net.retry.max_attempts = 16;
      em::EmEngine e(cfg);
      EXPECT_TRUE(expected == e.run(prog, sort_inputs(8, keys)))
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(e.last_result().comm.total_bytes(), ref_bytes)
          << "seed " << seed << " threads " << threads;
      if (!threads) {
        serial = e.last_result();
      } else {
        EXPECT_EQ(cgm::run_mismatches(serial, e.last_result()), "")
            << "seed " << seed;
      }
    }
  }
  EXPECT_GT(g_jitter_fired.load(), 0u)
      << "transient disk faults never fired the jitter hook: the sweep "
         "perturbed nothing";
}

TEST(ThreadedStress, KillSweepConvergesAcrossSeeds) {
  const auto keys = random_keys(2027, 2500);
  algo::SampleSortProgram<std::uint64_t> prog;

  cgm::MachineConfig ref_cfg;
  ref_cfg.v = 8;
  ref_cfg.p = 4;
  ref_cfg.disk.num_disks = 2;
  ref_cfg.disk.block_bytes = 512;
  ref_cfg.checkpointing = true;
  ref_cfg.net.enabled = true;
  em::EmEngine ref(ref_cfg);
  const auto expected = ref.run(prog, sort_inputs(8, keys));
  const auto steps = ref.last_result().io_per_step.size();
  ASSERT_GE(steps, 3u);

  std::uint64_t fired = 0;
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    cgm::RunResult serial;
    for (bool threads : {false, true}) {
      auto cfg = stress_cfg(seed, threads);
      cfg.net.failover = true;
      cfg.net.fault.fail_stops = {
          {static_cast<std::uint32_t>(seed % 4), 1 + seed % steps}};
      cfg.net.retry.max_attempts = 4;  // give up on the corpse quickly
      em::EmEngine e(cfg);
      EXPECT_TRUE(expected == e.run(prog, sort_inputs(8, keys)))
          << "seed " << seed << " threads " << threads;
      if (!threads) {
        serial = e.last_result();
      } else {
        // The fail-over fires at the same point and the wire does the same
        // work, jitter or not.
        EXPECT_EQ(cgm::run_mismatches(serial, e.last_result()), "")
            << "seed " << seed;
        fired += e.last_result().failovers;
      }
    }
  }
  EXPECT_GE(fired, 2u) << "the kill sweep barely killed anyone";
}
