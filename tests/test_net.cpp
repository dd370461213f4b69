// Simulated-network robustness: packet framing and CRC rejection, the
// seeded link fault injector, exactly-once in-order delivery of the
// reliable protocol under heavy loss, the heartbeat failure detector, and
// the engine-level guarantees — lossy links leave delivered payload (and
// sorted output) bit-identical while the wire does more work, and a real
// processor killed at or between any superstep boundary is failed over so
// the run completes degraded with bit-identical outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "algo/sort.h"
#include "emcgm/em_engine.h"
#include "net/net_fault.h"
#include "net/packet.h"
#include "net/sim_network.h"
#include "util/rng.h"

using namespace emcgm;

namespace {

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> v;
  while (*s) v.push_back(static_cast<std::byte>(*s++));
  return v;
}

std::vector<cgm::PartitionSet> sort_inputs(std::uint32_t v,
                                           const std::vector<std::uint64_t>& keys) {
  return {cgm::even_chunks<std::uint64_t>(keys, v)};
}

cgm::MachineConfig net_cfg(std::uint32_t v, std::uint32_t p,
                           bool threads = false) {
  cgm::MachineConfig cfg;
  cfg.v = v;
  cfg.p = p;
  cfg.disk.num_disks = 2;
  cfg.disk.block_bytes = 512;
  cfg.checkpointing = true;
  cfg.net.enabled = true;
  cfg.use_threads = threads;
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------- packets --

TEST(Packet, RoundTripsAllTypes) {
  for (auto type : {net::PacketType::kData, net::PacketType::kAck,
                    net::PacketType::kHeartbeat}) {
    const auto payload = bytes_of("the quick brown fox");
    net::Packet p;
    p.type = type;
    p.src = 3;
    p.dst = 1;
    p.seq = 0xDEADBEEFCAFEull;
    p.payload = payload;
    const auto frame = net::frame_packet(p);
    ASSERT_EQ(frame.size(), net::kPacketHeaderBytes + p.payload.size());
    const auto back = net::parse_packet(frame);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->type, p.type);
    EXPECT_EQ(back->src, p.src);
    EXPECT_EQ(back->dst, p.dst);
    EXPECT_EQ(back->seq, p.seq);
    // The parsed payload is a view of the frame's own bytes.
    EXPECT_EQ(back->payload.data(), frame.data() + net::kPacketHeaderBytes);
    EXPECT_TRUE(std::ranges::equal(back->payload, payload));
  }
}

TEST(Packet, EmptyPayloadRoundTrips) {
  net::Packet p;
  p.type = net::PacketType::kAck;
  p.seq = 7;
  const auto frame = net::frame_packet(p);
  const auto back = net::parse_packet(frame);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->payload.empty());
}

TEST(Packet, CrcRejectsEveryFlippedByte) {
  const auto payload = bytes_of("payload under test");
  net::Packet p;
  p.src = 1;
  p.dst = 0;
  p.seq = 42;
  p.payload = payload;
  const auto frame = net::frame_packet(p);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    auto bad = frame;
    bad[i] ^= std::byte{0x01};
    EXPECT_FALSE(net::parse_packet(bad).has_value()) << "byte " << i;
  }
}

TEST(Packet, TruncationRejected) {
  const auto payload = bytes_of("0123456789");
  net::Packet p;
  p.payload = payload;
  const auto frame = net::frame_packet(p);
  for (std::size_t len : {std::size_t{0}, std::size_t{4},
                          net::kPacketHeaderBytes - 1,
                          net::kPacketHeaderBytes,  // header says 10 more
                          frame.size() - 1}) {
    EXPECT_FALSE(
        net::parse_packet(std::span<const std::byte>(frame.data(), len))
            .has_value())
        << "len " << len;
  }
}

// --------------------------------------------------------- fault injector --

TEST(LinkFaultInjector, DeterministicPerPlan) {
  net::NetFaultPlan plan;
  plan.seed = 99;
  plan.drop_prob = 0.2;
  plan.dup_prob = 0.2;
  plan.corrupt_prob = 0.2;
  plan.reorder_prob = 0.2;
  plan.delay_prob = 0.2;
  net::LinkFaultInjector a(3, plan), b(3, plan);
  bool any_fault = false;
  for (int i = 0; i < 200; ++i) {
    const std::uint32_t src = i % 3, dst = (i + 1) % 3;
    const auto va = a.on_transmit(src, dst, net::PacketType::kData, 100);
    const auto vb = b.on_transmit(src, dst, net::PacketType::kData, 100);
    EXPECT_EQ(va.drop, vb.drop);
    EXPECT_EQ(va.duplicate, vb.duplicate);
    EXPECT_EQ(va.corrupt, vb.corrupt);
    EXPECT_EQ(va.reordered, vb.reordered);
    EXPECT_EQ(va.delayed, vb.delayed);
    EXPECT_EQ(va.extra_delay, vb.extra_delay);
    EXPECT_EQ(va.corrupt_pos, vb.corrupt_pos);
    any_fault |= va.drop || va.duplicate || va.corrupt || va.reordered ||
                 va.delayed;
  }
  EXPECT_TRUE(any_fault) << "20% x5 over 200 transmissions must fire";
}

TEST(LinkFaultInjector, HeartbeatsSeeOnlyFailStop) {
  net::NetFaultPlan plan;
  plan.seed = 5;
  plan.drop_prob = 1.0;
  plan.dup_prob = 1.0;
  plan.corrupt_prob = 1.0;
  plan.fail_stops = {{1, 10}};
  net::LinkFaultInjector inj(2, plan);
  inj.set_step(9);
  for (int i = 0; i < 20; ++i) {
    const auto v = inj.on_transmit(0, 1, net::PacketType::kHeartbeat, 32);
    EXPECT_FALSE(v.drop || v.duplicate || v.corrupt);
  }
  inj.set_step(10);
  EXPECT_TRUE(inj.fail_stopped(1));
  EXPECT_TRUE(inj.on_transmit(0, 1, net::PacketType::kHeartbeat, 32).drop);
  EXPECT_TRUE(inj.on_transmit(1, 0, net::PacketType::kData, 32).drop);
}

// ------------------------------------------------------- reliable protocol --

namespace {

/// Run one mailbox round from the test thread: `post_all` posts, then every
/// sender finishes (each finish simulates the pairs it completes) and the
/// round closes.
template <typename PostAll>
net::LinkStreams one_round(net::SimNetwork& nw, std::uint32_t p,
                           PostAll post_all) {
  nw.begin_round();
  post_all();
  for (std::uint32_t s = 0; s < p; ++s) nw.finish_sender(s);
  return nw.collect();
}

}  // namespace

TEST(SimNetwork, CleanLinksDeliverInOrder) {
  net::NetConfig cfg;
  cfg.enabled = true;
  cfg.mtu_bytes = 2;  // each 2-byte chunk is exactly one frame
  net::SimNetwork nw(2, cfg);
  std::vector<std::byte> want;
  const auto streams = one_round(nw, 2, [&] {
    for (char i = 0; i < 10; ++i) {
      const char name[] = {'m', static_cast<char>('0' + i), '\0'};
      const auto chunk = bytes_of(name);
      want.insert(want.end(), chunk.begin(), chunk.end());
      nw.post(0, 1, chunk);
    }
  });
  ASSERT_EQ(streams.size(), 2u);
  ASSERT_EQ(streams[1].size(), 2u);
  EXPECT_EQ(streams[1][0], want);
  EXPECT_TRUE(streams[0][1].empty());
  EXPECT_TRUE(streams[1][1].empty());
  EXPECT_EQ(nw.stats().retransmissions, 0u);
  EXPECT_EQ(nw.stats().delivered_messages, 10u);
  EXPECT_EQ(nw.stats().delivered_payload_bytes, want.size());
}

TEST(SimNetwork, ExactlyOnceInOrderUnderHeavyFaults) {
  net::NetConfig cfg;
  cfg.enabled = true;
  cfg.mtu_bytes = 5;  // frames cut across the 5- and 6-byte chunks
  cfg.fault.seed = 31337;
  cfg.fault.drop_prob = 0.15;
  cfg.fault.dup_prob = 0.15;
  cfg.fault.corrupt_prob = 0.15;
  cfg.fault.reorder_prob = 0.2;
  cfg.fault.delay_prob = 0.2;
  cfg.retry.max_attempts = 16;
  net::SimNetwork nw(3, cfg);
  const int kMsgs = 40;
  std::vector<std::byte> want[3][3];
  const auto streams = one_round(nw, 3, [&] {
    for (int i = 0; i < kMsgs; ++i) {
      for (std::uint32_t s = 0; s < 3; ++s) {
        for (std::uint32_t d = 0; d < 3; ++d) {
          if (s == d) continue;
          const auto chunk = bytes_of((std::to_string(s) + ">" +
                                       std::to_string(d) + "#" +
                                       std::to_string(i))
                                          .c_str());
          want[d][s].insert(want[d][s].end(), chunk.begin(), chunk.end());
          nw.post(s, d, chunk);
        }
      }
    }
  });
  // Exactly once and in order per link: each stream is byte for byte what
  // its sender posted, whatever the links dropped, duplicated or reordered.
  std::uint64_t frames = 0;
  for (std::uint32_t d = 0; d < 3; ++d) {
    for (std::uint32_t s = 0; s < 3; ++s) {
      EXPECT_EQ(streams[d][s], want[d][s]) << s << "->" << d;
      frames += (want[d][s].size() + cfg.mtu_bytes - 1) / cfg.mtu_bytes;
    }
  }
  const auto& st = nw.stats();
  EXPECT_GT(st.retransmissions, 0u);
  EXPECT_GT(st.dropped + st.corrupted, 0u);
  EXPECT_GT(st.duplicates_discarded, 0u);
  EXPECT_EQ(st.delivered_messages, frames);
}

TEST(SimNetwork, DeterministicAcrossRuns) {
  auto run_once = [] {
    net::NetConfig cfg;
    cfg.enabled = true;
    cfg.mtu_bytes = 1;  // one frame per posted byte
    cfg.fault.seed = 7;
    cfg.fault.drop_prob = 0.2;
    cfg.fault.reorder_prob = 0.2;
    cfg.retry.max_attempts = 16;
    net::SimNetwork nw(2, cfg);
    auto streams = one_round(nw, 2, [&] {
      for (int i = 0; i < 25; ++i) nw.post(i % 2, (i + 1) % 2, bytes_of("x"));
    });
    EXPECT_EQ(nw.stats().delivered_messages, 25u);
    return std::make_pair(nw.stats(), std::move(streams));
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimNetwork, BudgetExhaustionRaisesNetError) {
  net::NetConfig cfg;
  cfg.enabled = true;
  cfg.mtu_bytes = 4;  // "doomed" is two frames
  cfg.fault.seed = 3;
  cfg.fault.drop_prob = 1.0;  // nothing ever arrives
  cfg.retry.max_attempts = 4;
  net::SimNetwork nw(2, cfg);
  try {
    one_round(nw, 2, [&] { nw.post(0, 1, bytes_of("doomed")); });
    FAIL() << "expected NetError";
  } catch (const net::NetError& e) {
    EXPECT_EQ(e.src(), 0u);
    EXPECT_EQ(e.dst(), 1u);
  }
  // The round closed before the error surfaced, with the wire tax counted:
  // both frames went out max_attempts times before the first gave up.
  EXPECT_FALSE(nw.round_active());
  EXPECT_EQ(nw.stats().retransmissions, 2u * (cfg.retry.max_attempts - 1));
}

TEST(SimNetwork, EmptyPostChecksTheRoundContract) {
  // An empty chunk adds nothing, but it is held to the same contract as a
  // non-empty one: inside an open round, before its sender finished, on a
  // link between live endpoints.
  net::NetConfig cfg;
  cfg.enabled = true;
  net::SimNetwork nw(3, cfg);
  EXPECT_THROW(nw.post(0, 1, {}), Error);  // no round open
  nw.mark_dead(2);
  nw.begin_round();
  EXPECT_THROW(nw.post(0, 2, {}), Error);  // dead endpoint
  nw.post(0, 1, {});
  nw.post(1, 0, bytes_of("ok"));
  nw.finish_sender(0);
  EXPECT_THROW(nw.post(0, 1, {}), Error);  // sender already finished
  nw.finish_sender(1);
  const auto streams = nw.collect();
  EXPECT_TRUE(streams[1][0].empty());
  EXPECT_EQ(streams[0][1], bytes_of("ok"));
  EXPECT_EQ(nw.stats().delivered_messages, 1u);
}

TEST(SimNetwork, HeartbeatDetectorDeclaresFailStoppedDead) {
  net::NetConfig cfg;
  cfg.enabled = true;
  cfg.fault.fail_stops = {{2, 1}};
  net::SimNetwork nw(3, cfg);
  std::vector<std::uint32_t> dead;
  std::uint64_t step = 1;
  for (; step <= 10 && dead.empty(); ++step) {
    nw.set_step(step);
    dead = nw.heartbeat_round(step);
  }
  ASSERT_EQ(dead, (std::vector<std::uint32_t>{2}));
  EXPECT_LE(step, 1u + net::kHeartbeatMissThreshold + 1u);
  EXPECT_TRUE(nw.dead(2));
  EXPECT_FALSE(nw.dead(0));
  // Survivors keep being heard: no further declarations.
  for (; step <= 13; ++step) {
    nw.set_step(step);
    EXPECT_TRUE(nw.heartbeat_round(step).empty());
  }
}

// ------------------------------------------------- engine over lossy links --

TEST(NetEngine, LossySweepDeliversIdenticalPayload) {
  const auto keys = random_keys(4242, 3000);
  algo::SampleSortProgram<std::uint64_t> prog;

  // Baseline 1: p=2, direct in-process handoff (net disabled).
  auto direct_cfg = net_cfg(8, 2);
  direct_cfg.net.enabled = false;
  em::EmEngine direct(direct_cfg);
  const auto expected = direct.run(prog, sort_inputs(8, keys));
  const auto direct_bytes = direct.last_result().comm.total_bytes();
  ASSERT_GT(direct_bytes, 0u);
  EXPECT_EQ(direct.last_result().net.wire_bytes, 0u);

  // The whole sweep runs serial and threaded; the run check must name
  // nothing between the two modes (the wire protocol cannot tell who drove
  // it — see sim_network.h on pair decomposition).
  std::vector<cgm::RunResult> serial_runs;
  for (bool threads : {false, true}) {
    // Baseline 2: clean simulated network.
    em::EmEngine clean(net_cfg(8, 2, threads));
    EXPECT_TRUE(expected == clean.run(prog, sort_inputs(8, keys)));
    EXPECT_EQ(clean.last_result().comm.total_bytes(), direct_bytes);
    EXPECT_EQ(clean.last_result().net.retransmissions, 0u);
    EXPECT_GT(clean.last_result().net.wire_bytes, 0u);
    std::vector<cgm::RunResult> runs;
    runs.push_back(clean.last_result());

    // Lossy sweep up to 10%: the application-visible numbers must not move.
    std::uint64_t faults_fired = 0, retransmitted = 0;
    for (double loss : {0.02, 0.05, 0.10}) {
      auto cfg = net_cfg(8, 2, threads);
      cfg.net.fault.seed = 555;
      cfg.net.fault.drop_prob = loss;
      cfg.net.fault.dup_prob = loss / 2;
      cfg.net.fault.corrupt_prob = loss / 2;
      cfg.net.fault.reorder_prob = loss;
      cfg.net.retry.max_attempts = 16;
      em::EmEngine e(cfg);
      EXPECT_TRUE(expected == e.run(prog, sort_inputs(8, keys)))
          << "loss " << loss << " threads " << threads;
      const auto& res = e.last_result();
      // Delivered payload accounting is transport-independent...
      EXPECT_EQ(res.comm.total_bytes(), direct_bytes) << "loss " << loss;
      // ...and a faulty wire only ever does more work, never less.
      EXPECT_GE(res.net.wire_bytes, runs[0].net.wire_bytes) << "loss " << loss;
      faults_fired += res.net.dropped + res.net.corrupted +
                      res.net.duplicated + res.net.reordered;
      retransmitted += res.net.retransmissions;
      runs.push_back(res);
    }
    // Individual loss rates may get lucky on a short run; the sweep as a
    // whole must have exercised both the faults and the recovery.
    EXPECT_GT(faults_fired, 0u);
    EXPECT_GT(retransmitted, 0u);

    if (!threads) {
      serial_runs = std::move(runs);
    } else {
      ASSERT_EQ(runs.size(), serial_runs.size());
      for (std::size_t i = 0; i < runs.size(); ++i) {
        EXPECT_EQ(cgm::run_mismatches(serial_runs[i], runs[i]), "")
            << "config " << i;
      }
    }
  }
}

TEST(NetEngine, PerStepWireAccountingSumsToNetStats) {
  cgm::RunResult serial;
  for (bool threads : {false, true}) {
    auto cfg = net_cfg(8, 2, threads);
    cfg.net.fault.seed = 11;
    cfg.net.fault.drop_prob = 0.05;
    cfg.net.fault.reorder_prob = 0.05;
    em::EmEngine e(cfg);
    algo::SampleSortProgram<std::uint64_t> prog;
    e.run(prog, sort_inputs(8, random_keys(77, 2000)));
    const auto& res = e.last_result();
    std::uint64_t wire = 0, rtx = 0;
    for (const auto& s : res.comm.steps) {
      wire += s.wire_bytes;
      rtx += s.retransmissions;
    }
    EXPECT_EQ(wire, res.net.wire_bytes);
    EXPECT_EQ(rtx, res.net.retransmissions);
    EXPECT_GT(res.net.wire_bytes, res.net.delivered_payload_bytes);
    if (!threads) {
      serial = res;
    } else {
      // Per-step attribution survives concurrent delivery unchanged.
      EXPECT_EQ(cgm::run_mismatches(serial, res), "");
    }
  }
}

// ------------------------------------------------------------- fail-over --

namespace {

/// Run the sort with real processor `victim` fail-stopping at physical
/// superstep `step`; returns outputs + the run's statistics.
struct KillRun {
  std::vector<cgm::PartitionSet> out;
  cgm::RunResult run;
};

KillRun run_with_kill(std::uint32_t v, std::uint32_t p,
                      const std::vector<std::uint64_t>& keys,
                      std::uint32_t victim, std::uint64_t step,
                      bool threads = false) {
  auto cfg = net_cfg(v, p, threads);
  cfg.net.failover = true;
  cfg.net.fault.fail_stops = {{victim, step}};
  em::EmEngine e(cfg);
  algo::SampleSortProgram<std::uint64_t> prog;
  KillRun r;
  r.out = e.run(prog, sort_inputs(v, keys));
  r.run = e.last_result();
  if (r.run.failovers > 0) {
    EXPECT_FALSE(e.alive(victim));
    // The victim's store group moved to a live survivor; disks stayed put.
    EXPECT_NE(e.group_host(victim), victim);
    EXPECT_TRUE(e.alive(e.group_host(victim)));
  }
  // Membership invariant, kill fired or not: every store group is hosted by
  // a live processor, and the greedy re-spread keeps the groups-per-live-
  // host difference within one (no survivor drives two groups while another
  // drives none).
  std::vector<std::uint32_t> groups_on(p, 0);
  for (std::uint32_t g = 0; g < p; ++g) {
    EXPECT_TRUE(e.alive(e.group_host(g))) << "group " << g;
    ++groups_on[e.group_host(g)];
  }
  std::uint32_t lo = p, hi = 0;
  for (std::uint32_t h = 0; h < p; ++h) {
    if (!e.alive(h)) continue;
    lo = std::min(lo, groups_on[h]);
    hi = std::max(hi, groups_on[h]);
  }
  EXPECT_LE(hi - lo, 1u) << "victim=" << victim << " step=" << step;
  return r;
}

}  // namespace

TEST(NetFailover, SmokeKillOneProcessor) {
  const auto keys = random_keys(91, 1500);
  algo::SampleSortProgram<std::uint64_t> prog;
  em::EmEngine ref(net_cfg(8, 2));
  const auto expected = ref.run(prog, sort_inputs(8, keys));

  for (bool threads : {false, true}) {
    const auto got = run_with_kill(8, 2, keys, 1, 2, threads);
    EXPECT_GE(got.run.failovers, 1u);
    EXPECT_TRUE(expected == got.out) << "threads " << threads;
  }
}

TEST(NetFailover, KillSweepEveryProcEveryStep) {
  // Acceptance sweep: for p in {2, 4}, fail-stop each real processor at
  // every physical superstep of the run. Every run must complete and the
  // degraded outputs must be bit-identical to the fault-free run.
  algo::SampleSortProgram<std::uint64_t> prog;
  for (std::uint32_t p : {2u, 4u}) {
    const auto keys = random_keys(1000 + p, 2000);
    em::EmEngine ref(net_cfg(8, p));
    const auto expected = ref.run(prog, sort_inputs(8, keys));
    const auto steps = ref.last_result().io_per_step.size();
    const auto comm_steps = ref.last_result().comm_steps;
    ASSERT_GE(steps, 4u);
    ASSERT_GE(comm_steps, 3u);

    std::uint64_t fired = 0;
    for (std::uint32_t victim = 0; victim < p; ++victim) {
      // Physical steps are 0-based; step 0 is dead-on-arrival (the machine
      // never speaks), `steps + 1` never triggers: the late-kill control.
      for (std::uint64_t step = 0; step <= steps + 1; ++step) {
        const auto got = run_with_kill(8, p, keys, victim, step);
        EXPECT_TRUE(expected == got.out)
            << "p=" << p << " victim=" << victim << " step=" << step;
        fired += got.run.failovers;
        // Threaded replay of the same kill: identical outputs, and the run
        // check names nothing (the fail-over fires at exactly the same
        // point) — the death/retry/replay schedule is execution-order
        // independent.
        const auto thr = run_with_kill(8, p, keys, victim, step, true);
        EXPECT_TRUE(expected == thr.out)
            << "threaded p=" << p << " victim=" << victim << " step=" << step;
        EXPECT_EQ(cgm::run_mismatches(got.run, thr.run), "")
            << "p=" << p << " victim=" << victim << " step=" << step;
      }
    }
    // A fail-stop materializes when the victim is next *needed*: its link
    // exhausts (or its heartbeat lapses) at a communication superstep. Kills
    // landing after the last comm step sever a machine nobody talks to
    // again, so those runs legitimately finish clean. Every kill inside the
    // communication window must have fired, for every victim.
    EXPECT_GE(fired, static_cast<std::uint64_t>(p) * comm_steps);
  }
}

TEST(NetFailover, DiskCrashBetweenBoundariesIsAdopted) {
  // Kills *between* superstep boundaries: the victim's own disk subsystem
  // hard-crashes mid-superstep (fault_per_proc), which the engine treats as
  // the machine dying. Survivors adopt its store group from the last commit
  // and the run completes with identical outputs.
  const auto keys = random_keys(313, 2000);
  algo::SampleSortProgram<std::uint64_t> prog;
  em::EmEngine ref(net_cfg(8, 2));
  const auto expected = ref.run(prog, sort_inputs(8, keys));

  std::uint64_t fired = 0;
  for (bool threads : {false, true}) {
    for (std::uint64_t K : {9ull, 33ull, 101ull, 257ull, 601ull}) {
      auto cfg = net_cfg(8, 2, threads);
      cfg.net.failover = true;
      cfg.fault_per_proc.assign(2, pdm::FaultPlan{});
      cfg.fault_per_proc[1].crash_after_ops = K;
      em::EmEngine e(cfg);
      try {
        const auto got = e.run(prog, sort_inputs(8, keys));
        EXPECT_TRUE(expected == got)
            << "K=" << K << " threads=" << threads;
        fired += e.last_result().failovers;
        if (e.last_result().failovers > 0) {
          EXPECT_FALSE(e.alive(1));
        }
      } catch (const IoError& err) {
        // Only a death before the first commit may escape: no consistent
        // state exists yet, so fail-over has nothing to restart from.
        ASSERT_EQ(err.kind(), IoErrorKind::kCrash) << "K=" << K;
        EXPECT_FALSE(e.has_checkpoint()) << "K=" << K;
      }
    }
  }
  EXPECT_GE(fired, 6u);
}

TEST(NetFailover, PerHostFileRootsKillSweep) {
  // Multi-node file layout: each real processor's disks live under their
  // own directory subtree (cfg.file_roots), emulating p machines with
  // separate filesystems. The clean run must match the memory-backend
  // reference bit-for-bit, and a reduced fail-over sweep across that layout
  // must complete degraded with identical outputs — the survivor adopting
  // the dead host's store group across a real filesystem boundary.
  const auto keys = random_keys(424, 1500);
  algo::SampleSortProgram<std::uint64_t> prog;
  em::EmEngine ref(net_cfg(8, 2));
  const auto expected = ref.run(prog, sort_inputs(8, keys));
  const auto steps = ref.last_result().io_per_step.size();

  const std::vector<std::string> roots = {"/tmp/emcgm_hostroot_0",
                                          "/tmp/emcgm_hostroot_1"};
  auto fresh_cfg = [&](bool threads) {
    for (const auto& r : roots) std::filesystem::remove_all(r);
    auto cfg = net_cfg(8, 2, threads);
    cfg.backend = pdm::BackendKind::kFile;
    cfg.file_roots = roots;
    return cfg;
  };

  // Clean run on the per-host layout: identical outputs, and each host's
  // subtree actually materialized on disk.
  {
    em::EmEngine e(fresh_cfg(false));
    EXPECT_TRUE(expected == e.run(prog, sort_inputs(8, keys)));
    for (const auto& r : roots) {
      EXPECT_TRUE(std::filesystem::exists(r)) << r;
    }
  }

  // Reduced kill sweep: victim 1 at early / middle / late / never steps,
  // serial and threaded.
  std::uint64_t fired = 0;
  for (bool threads : {false, true}) {
    for (std::uint64_t step : {std::uint64_t{1}, steps / 2, steps,
                               steps + 1}) {
      auto cfg = fresh_cfg(threads);
      cfg.net.failover = true;
      cfg.net.fault.fail_stops = {{1, step}};
      em::EmEngine e(cfg);
      const auto got = e.run(prog, sort_inputs(8, keys));
      EXPECT_TRUE(expected == got)
          << "step=" << step << " threads=" << threads;
      fired += e.last_result().failovers;
    }
  }
  EXPECT_GE(fired, 4u);
  for (const auto& r : roots) std::filesystem::remove_all(r);
}

TEST(NetFailover, FileRootsConfigValidation) {
  auto cfg = net_cfg(8, 2);
  cfg.file_roots = {"/tmp/a", "/tmp/b"};  // memory backend: rejected
  EXPECT_THROW(cfg.validate(), Error);
  cfg.backend = pdm::BackendKind::kFile;
  EXPECT_NO_THROW(cfg.validate());
  cfg.file_roots = {"/tmp/a"};  // must have exactly p entries
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(NetFailover, WithoutFailoverDeathIsFatal) {
  auto cfg = net_cfg(8, 2);
  cfg.net.fault.fail_stops = {{1, 2}};
  cfg.net.retry.max_attempts = 4;  // fail fast
  em::EmEngine e(cfg);
  algo::SampleSortProgram<std::uint64_t> prog;
  EXPECT_THROW(e.run(prog, sort_inputs(8, random_keys(17, 1500))), Error);
}

TEST(NetFailover, ConfigValidation) {
  auto cfg = net_cfg(8, 2);
  cfg.net.failover = true;
  cfg.net.enabled = false;  // failover needs the network
  EXPECT_THROW(cfg.validate(), Error);
  cfg.net.enabled = true;
  cfg.checkpointing = false;  // ...and a checkpoint to restart from
  EXPECT_THROW(cfg.validate(), Error);
  cfg.checkpointing = true;
  EXPECT_NO_THROW(cfg.validate());
  cfg.fault_per_proc.resize(3);  // must match p
  EXPECT_THROW(cfg.validate(), Error);
}

// ------------------------------------------------------ rejoin handshake --

TEST(Rejoin, InjectorScheduleKillRebootKill) {
  // The membership schedule is step-driven and latest-event-wins: a reboot
  // outdates an earlier kill, a later kill outdates the reboot.
  net::NetFaultPlan plan;
  plan.fail_stops = {{1, 2}, {1, 8}};
  plan.rejoins = {{1, 5}};
  net::LinkFaultInjector inj(2, plan);
  inj.set_step(1);
  EXPECT_FALSE(inj.fail_stopped(1));
  EXPECT_FALSE(inj.rebooted(1));
  inj.set_step(2);  // first kill fires: all traffic dies
  EXPECT_TRUE(inj.fail_stopped(1));
  EXPECT_FALSE(inj.rebooted(1));
  EXPECT_TRUE(inj.on_transmit(1, 0, net::PacketType::kHeartbeat, 32).drop);
  inj.set_step(5);  // the reboot outdates the kill: traffic flows again
  EXPECT_FALSE(inj.fail_stopped(1));
  EXPECT_TRUE(inj.rebooted(1));
  EXPECT_FALSE(inj.on_transmit(1, 0, net::PacketType::kHeartbeat, 32).drop);
  inj.set_step(8);  // the second kill outdates the reboot
  EXPECT_TRUE(inj.fail_stopped(1));
  EXPECT_FALSE(inj.rebooted(1));
}

TEST(Rejoin, KillAndRebootAtSameStepResolveDead) {
  net::NetFaultPlan plan;
  plan.fail_stops = {{0, 3}, {0, 6}};
  plan.rejoins = {{0, 6}};
  net::LinkFaultInjector inj(2, plan);
  inj.set_step(6);
  EXPECT_TRUE(inj.fail_stopped(0));
  EXPECT_FALSE(inj.rebooted(0));
}

TEST(Rejoin, HandshakeDeterministicUnderLinkLoss) {
  // The rejoin request/ack frames are heartbeat-class (net_fault.h): random
  // link loss up to the engine's supported 10% must not change the candidate
  // set — nor, in this traffic-free round, any wire counter at all.
  std::vector<std::uint32_t> base_candidates;
  net::NetStats base_stats;
  bool have_base = false;
  for (double loss : {0.0, 0.05, 0.10}) {
    net::NetConfig cfg;
    cfg.enabled = true;
    cfg.fault.seed = 2024;
    cfg.fault.drop_prob = loss;
    cfg.fault.corrupt_prob = loss / 2;
    cfg.fault.fail_stops = {{2, 1}};
    cfg.fault.rejoins = {{2, 6}};
    net::SimNetwork nw(4, cfg);
    // Drive the detector until it declares the fail-stopped processor dead;
    // before the scheduled reboot fires there is never a candidate.
    std::vector<std::uint32_t> dead;
    for (std::uint64_t step = 1; step <= 5 && dead.empty(); ++step) {
      nw.set_step(step);
      dead = nw.heartbeat_round(step);
      EXPECT_TRUE(nw.rejoin_round().empty()) << "step " << step;
    }
    ASSERT_EQ(dead, (std::vector<std::uint32_t>{2})) << "loss " << loss;
    // The reboot fires at step 6: the handshake produces the candidate.
    nw.set_step(6);
    EXPECT_TRUE(nw.heartbeat_round(6).empty());
    const auto cand = nw.rejoin_round();
    ASSERT_EQ(cand, (std::vector<std::uint32_t>{2})) << "loss " << loss;
    EXPECT_GT(nw.stats().rejoin_requests, 0u);
    EXPECT_GT(nw.stats().rejoin_acks, 0u);
    if (!have_base) {
      base_candidates = cand;
      base_stats = nw.stats();
      have_base = true;
    } else {
      EXPECT_EQ(cand, base_candidates) << "loss " << loss;
      EXPECT_EQ(nw.stats(), base_stats) << "loss " << loss;
    }
  }
}

TEST(Rejoin, DuplicateRequestsAbsorbed) {
  net::NetConfig cfg;
  cfg.enabled = true;
  cfg.fault.fail_stops = {{1, 1}};
  cfg.fault.rejoins = {{1, 5}};
  net::SimNetwork nw(3, cfg);
  for (std::uint64_t step = 1; step <= 4; ++step) {
    nw.set_step(step);
    nw.heartbeat_round(step);
  }
  ASSERT_TRUE(nw.dead(1));
  nw.set_step(5);
  // The handshake is idempotent: until the engine re-admits the node, a
  // duplicate request round returns the same candidate again.
  const auto first = nw.rejoin_round();
  const auto second = nw.rejoin_round();
  ASSERT_EQ(first, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(second, first);
  // Each round broadcast to both peers and both (live) peers acked.
  EXPECT_EQ(nw.stats().rejoin_requests, 4u);
  EXPECT_EQ(nw.stats().rejoin_acks, 4u);
  // Re-admission consumes the candidacy...
  nw.mark_alive(1);
  EXPECT_FALSE(nw.dead(1));
  EXPECT_TRUE(nw.rejoin_round().empty());
  // ...and renews the detector lease: the next heartbeat round must not
  // instantly re-declare the returner dead.
  nw.set_step(6);
  EXPECT_TRUE(nw.heartbeat_round(6).empty());
}

TEST(Rejoin, RacingSecondDeathYieldsToFailover) {
  // Proc 1 dies early; its scheduled reboot fires at the same physical step
  // at which proc 2 dies. Deaths take priority at the barrier: the second
  // fail-over settles first and the returner is admitted at a later barrier
  // — deterministically, with outputs bit-identical to the clean run, in
  // both threading modes.
  const auto keys = random_keys(606, 2000);
  algo::SampleSortProgram<std::uint64_t> prog;
  em::EmEngine ref(net_cfg(8, 4));
  const auto expected = ref.run(prog, sort_inputs(8, keys));

  cgm::RunResult serial;
  for (bool threads : {false, true}) {
    auto cfg = net_cfg(8, 4, threads);
    cfg.net.failover = true;
    cfg.net.fault.fail_stops = {{1, 1}, {2, 4}};
    cfg.net.fault.rejoins = {{1, 4}};
    em::EmEngine e(cfg);
    const auto got = e.run(prog, sort_inputs(8, keys));
    EXPECT_TRUE(expected == got) << "threads " << threads;
    EXPECT_GE(e.last_result().failovers, 2u);
    EXPECT_EQ(e.last_result().rejoins, 1u);
    EXPECT_TRUE(e.alive(1));
    EXPECT_FALSE(e.alive(2));
    if (!threads) {
      serial = e.last_result();
    } else {
      EXPECT_EQ(cgm::run_mismatches(serial, e.last_result()), "");
    }
  }
}

// ------------------------------------------------------------- rebalance --

TEST(Rebalance, GreedySpreadAfterSequentialKills) {
  // Two deaths, one after the other (p=4): each fail-over re-spreads ALL
  // store groups with the deterministic greedy rule — live homes keep their
  // own group, orphans go to the least-loaded survivor (group id ascending,
  // ties to the lowest host), so the spread never exceeds one.
  const auto keys = random_keys(808, 2000);
  algo::SampleSortProgram<std::uint64_t> prog;
  em::EmEngine ref(net_cfg(8, 4));
  const auto expected = ref.run(prog, sort_inputs(8, keys));

  auto cfg = net_cfg(8, 4);
  cfg.net.failover = true;
  cfg.net.fault.fail_stops = {{3, 2}, {1, 4}};
  em::EmEngine e(cfg);
  const auto got = e.run(prog, sort_inputs(8, keys));
  EXPECT_TRUE(expected == got);
  ASSERT_EQ(e.last_result().failovers, 2u);
  // Live homes kept their groups; the orphans spread over both survivors:
  // g1 to the least-loaded lowest host (0), then g3 to host 2.
  EXPECT_EQ(e.group_host(0), 0u);
  EXPECT_EQ(e.group_host(2), 2u);
  EXPECT_EQ(e.group_host(1), 0u);
  EXPECT_EQ(e.group_host(3), 2u);
  // The second re-spread moved g3 between two LIVE survivors (0 -> 2): its
  // committed record crossed the wire and was validated on arrival.
  EXPECT_GE(e.last_result().net.rebalance_migrations, 3u);
  EXPECT_GT(e.last_result().net.migration_bytes, 0u);
}

// ------------------------------------------------------------ membership --

TEST(Membership, KillThenRejoinTakesGroupsHome) {
  // The acceptance scenario: p=4 sort, one processor dies mid-run and
  // rejoins three supersteps later. The run completes with output
  // bit-identical to the clean run, the returner ends up back in the
  // membership driving its own store group, and every membership change
  // advanced the epoch exactly once.
  const auto keys = random_keys(707, 2000);
  algo::SampleSortProgram<std::uint64_t> prog;
  em::EmEngine ref(net_cfg(8, 4));
  const auto expected = ref.run(prog, sort_inputs(8, keys));

  for (bool threads : {false, true}) {
    auto cfg = net_cfg(8, 4, threads);
    cfg.net.failover = true;
    cfg.net.fault.fail_stops = {{1, 2}};
    cfg.net.fault.rejoins = {{1, 5}};
    em::EmEngine e(cfg);
    const auto got = e.run(prog, sort_inputs(8, keys));
    EXPECT_TRUE(expected == got) << "threads " << threads;
    ASSERT_EQ(e.last_result().failovers, 1u);
    ASSERT_EQ(e.last_result().rejoins, 1u);
    // The returner is back with its own group home again.
    EXPECT_TRUE(e.alive(1));
    EXPECT_EQ(e.group_host(1), 1u);
    // One epoch per membership change: the death, then the rejoin.
    EXPECT_EQ(e.membership_epoch(), 2u);
    const auto& net = e.last_result().net;
    EXPECT_GT(net.rejoin_requests, 0u);
    EXPECT_GT(net.rejoin_acks, 0u);
    // g1 moved away at the death (old host dead: disks hand over, 0 bytes)
    // and moved home at the rejoin (old host live: record over the wire).
    EXPECT_GE(net.rebalance_migrations, 2u);
    EXPECT_GT(net.migration_bytes, 0u);
  }
}

TEST(Membership, ConfigValidationTypedErrors) {
  auto expect_config_error = [](const cgm::MachineConfig& cfg) {
    try {
      cfg.validate();
      FAIL() << "expected IoError(kConfig)";
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kConfig);
    }
  };
  // rejoin rides on the fail-over machinery: a valid kill/reboot pair is
  // rejected until fail-over is on.
  {
    auto cfg = net_cfg(8, 2);
    cfg.net.fault.fail_stops = {{1, 2}};
    cfg.net.fault.rejoins = {{1, 5}};
    expect_config_error(cfg);
    cfg.net.failover = true;
    EXPECT_NO_THROW(cfg.validate());
  }
  // A scheduled reboot needs a preceding fail-stop, and in-range procs.
  {
    auto cfg = net_cfg(8, 2);
    cfg.net.failover = true;
    cfg.net.fault.rejoins = {{1, 5}};
    expect_config_error(cfg);  // never killed
    cfg.net.fault.fail_stops = {{1, 5}};
    expect_config_error(cfg);  // killed, but not strictly before the reboot
    cfg.net.fault.fail_stops = {{1, 2}};
    EXPECT_NO_THROW(cfg.validate());
    cfg.net.fault.rejoins = {{7, 5}};  // outside 0..p-1
    expect_config_error(cfg);
    cfg.net.fault.rejoins.clear();
    cfg.net.fault.fail_stops = {{9, 2}};  // outside 0..p-1
    expect_config_error(cfg);
  }
  // Async I/O workers need disks to serve.
  {
    auto cfg = net_cfg(8, 2);
    cfg.io_threads = 2;
    cfg.disk.num_disks = 0;
    expect_config_error(cfg);
  }
}
