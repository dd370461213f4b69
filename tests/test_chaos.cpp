// Chaos harness: disk-capacity (kNoSpace) faults, the runtime invariant
// layer (no-progress watchdog and friends), composed ChaosPlans with their
// JSON repro format, the seeded plan fuzzer, and the ddmin shrinker.
//
// The suite names matter: CI's TSan job selects tests by regex, and
// `Chaos|NoSpace|Watchdog|Schedule` pulls these in so the invariant layer,
// the quota paths, and the collective-schedule events also run under the
// race detector.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "algo/sort.h"
#include "chaos/chaos_config.h"
#include "chaos/fuzzer.h"
#include "chaos/plan.h"
#include "chaos/shrink.h"
#include "emcgm/em_engine.h"
#include "pdm/backend.h"
#include "pdm/disk_array.h"
#include "pdm/fault.h"
#include "routing/schedule.h"
#include "util/math.h"
#include "util/rng.h"

using namespace emcgm;
using namespace emcgm::chaos;

namespace {

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 31 + seed) & 0xFF);
  }
  return v;
}

std::vector<cgm::PartitionSet> keyed_inputs(std::uint32_t v, std::size_t n) {
  Rng rng(12345);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.next_below(1000);
  cgm::PartitionSet set;
  set.parts.resize(v);
  for (std::uint32_t j = 0; j < v; ++j) {
    const auto begin = chunk_begin(keys.size(), v, j);
    const auto count = chunk_size(keys.size(), v, j);
    std::vector<std::uint64_t> part(keys.begin() + begin,
                                    keys.begin() + begin + count);
    set.parts[j] = vec_to_bytes(part);
  }
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(set));
  return inputs;
}

/// The fuzzer's machine config, reproduced for tests that need direct
/// engine access (run_plan does not expose every chaos knob).
cgm::MachineConfig fuzz_style_config(std::uint32_t p) {
  cgm::MachineConfig cfg;
  cfg.v = 8;
  cfg.p = p;
  cfg.disk.num_disks = 4;
  cfg.disk.block_bytes = 128;
  cfg.layout = cgm::MsgLayout::kChained;
  cfg.checkpointing = true;
  cfg.checksums = true;
  cfg.seed = 7;
  cfg.retry.max_attempts = 50;
  cfg.retry.sleep = [](std::uint64_t) {};
  if (p > 1) cfg.net.enabled = true;
  return cfg;
}

}  // namespace

// ------------------------------------------------------- kNoSpace faults --

TEST(NoSpace, BackendQuotaSemantics) {
  auto b = pdm::make_backend(pdm::BackendKind::kMemory,
                             pdm::DiskGeometry{2, 128}, "");
  const auto data = pattern(128, 1);
  b->set_disk_quota_bytes(128);  // room for exactly one track per disk
  b->write_block(0, 0, data);    // materializes track 0
  b->write_block(0, 0, data);    // overwrite of live data always succeeds
  try {
    b->write_block(0, 1, data);
    FAIL() << "expected kNoSpace";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kNoSpace);
  }
  b->write_block(1, 0, data);  // the quota is per disk, not per array
  b->set_disk_quota_bytes(2 * 128);
  b->write_block(0, 1, data);  // raising the quota frees the denied write
  b->set_disk_quota_bytes(0);
  b->write_block(0, 9, data);  // 0 = unlimited again (sparse write far out)
}

TEST(NoSpace, DiskArrayTypedThroughBothIoPaths) {
  // The async executor must surface the same typed error the serial path
  // throws, and the array must stay usable once the quota is lifted.
  for (std::uint32_t T : {0u, 2u}) {
    pdm::DiskArrayOptions opts;
    opts.io_threads = T;
    auto a = pdm::make_disk_array(pdm::BackendKind::kMemory,
                                  pdm::DiskGeometry{2, 128}, "", opts);
    a->set_quota_bytes(2 * 128);
    const auto data = pattern(128, 2);
    for (std::uint64_t t = 0; t < 2; ++t) {
      pdm::WriteSlot w{pdm::BlockAddr{0, t}, data};
      a->parallel_write(std::span<const pdm::WriteSlot>(&w, 1));
    }
    bool hit = false;
    try {
      pdm::WriteSlot w{pdm::BlockAddr{0, 2}, data};
      a->parallel_write(std::span<const pdm::WriteSlot>(&w, 1));
      a->drain();  // write-behind surfaces at the barrier in async mode
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kNoSpace) << "io_threads=" << T;
      hit = true;
    }
    EXPECT_TRUE(hit) << "io_threads=" << T;
    a->set_quota_bytes(0);
    pdm::WriteSlot w{pdm::BlockAddr{0, 2}, data};
    a->parallel_write(std::span<const pdm::WriteSlot>(&w, 1));
    a->drain();
    std::vector<std::byte> out(128);
    pdm::ReadSlot r{pdm::BlockAddr{0, 2}, out};
    a->parallel_read(std::span<const pdm::ReadSlot>(&r, 1));
    EXPECT_EQ(out, data) << "io_threads=" << T;
  }
}

TEST(NoSpace, EngineAbortsTypedAndResumesBitIdentical) {
  // Direct engine exercise on p=1: size the quota one track below the
  // clean run's high-water mark (checksums off, so physical == logical
  // bytes), run until the disk fills, then lift the quota and resume.
  auto cfg = fuzz_style_config(1);
  cfg.checksums = false;
  const auto inputs = keyed_inputs(cfg.v, 400);
  algo::SampleSortProgram<std::uint64_t> prog;

  em::EmEngine ref(cfg);
  const auto expected = ref.run(prog, inputs);
  // tracks_used sums over the D disks; the busiest disk holds at least the
  // ceiling of the average, so capping every disk one track below that is
  // guaranteed to run out of space near the end of the run.
  const std::uint64_t per_disk =
      (ref.tracks_used(0) + cfg.disk.num_disks - 1) / cfg.disk.num_disks;
  ASSERT_GT(per_disk, 2u);

  auto qcfg = cfg;
  qcfg.chaos.disk_quota_per_proc.assign(cfg.p,
                                        (per_disk - 1) * cfg.disk.block_bytes);
  em::EmEngine e(qcfg);
  bool aborted = false;
  try {
    (void)e.run(prog, inputs);
  } catch (const IoError& err) {
    EXPECT_EQ(err.kind(), IoErrorKind::kNoSpace);
    aborted = true;
  }
  ASSERT_TRUE(aborted) << "quota below the run's footprint must abort";
  ASSERT_TRUE(e.has_checkpoint())
      << "a one-track squeeze must abort after the first commit";
  e.set_disk_quota_bytes(0, 0);  // space freed
  const auto got = e.resume(prog);
  EXPECT_TRUE(expected == got);
}

TEST(NoSpace, QuotaWindowClassifiesAcrossTheFootprint) {
  // Through the fuzzer harness on the p=2 network machine: a quota far
  // below the workload's footprint dies before the first commit (typed,
  // nothing to resume), one inside the footprint aborts mid-run and
  // resumes bit-identical, one above it never fires.
  FuzzMachine m;
  const auto reference = run_reference(m);
  auto quota_outcome = [&](std::uint64_t bytes) {
    ChaosPlan plan;
    plan.seed = 11;
    plan.events.push_back(
        ChaosEvent{ChaosEvent::Kind::kDiskQuota, 1, bytes, 0.0});
    return run_plan(plan, m, reference);
  };
  const auto tiny = quota_outcome(4000);
  EXPECT_EQ(tiny.status, FuzzStatus::kTypedFailure) << tiny.detail;
  const auto mid = quota_outcome(200000);
  EXPECT_EQ(mid.status, FuzzStatus::kResumedIdentical) << mid.detail;
  const auto big = quota_outcome(600000);
  EXPECT_EQ(big.status, FuzzStatus::kIdentical) << big.detail;
}

// ------------------------------------------------ no-progress watchdog ----

TEST(Watchdog, NeverFiresOnCleanRuns) {
  // Invariants armed (default 64-step watchdog) on a clean run and on a
  // retry-storm run: both must complete with outputs identical to the
  // unarmed machine.
  auto cfg = fuzz_style_config(1);
  const auto inputs = keyed_inputs(cfg.v, 400);
  algo::SampleSortProgram<std::uint64_t> prog;
  em::EmEngine plain(cfg);
  const auto expected = plain.run(prog, inputs);

  auto armed = cfg;
  armed.chaos.invariants = true;
  em::EmEngine a(armed);
  EXPECT_TRUE(expected == a.run(prog, inputs));

  auto storm = armed;
  storm.fault.seed = 99;
  storm.fault.transient_read_prob = 0.02;
  storm.fault.transient_write_prob = 0.02;
  em::EmEngine s(storm);
  EXPECT_TRUE(expected == s.run(prog, inputs));
}

TEST(Watchdog, SurvivesFailoverReplayAtDefaultThreshold) {
  // A mid-run death forces a checkpoint replay — supersteps legitimately
  // re-run without the high-water mark advancing. The default threshold
  // must ride it out and still deliver bit-identical output.
  auto cfg = fuzz_style_config(2);
  const auto inputs = keyed_inputs(cfg.v, 400);
  algo::SampleSortProgram<std::uint64_t> prog;
  em::EmEngine ref(cfg);
  const auto expected = ref.run(prog, inputs);

  auto kill = cfg;
  kill.chaos.invariants = true;
  kill.net.failover = true;
  kill.net.fault.fail_stops = {{1, 3}};
  em::EmEngine e(kill);
  EXPECT_TRUE(expected == e.run(prog, inputs));
}

TEST(Watchdog, FiresTypedWhenThresholdBelowReplayDepth) {
  // Same schedule with watchdog_steps=1: the first replayed superstep does
  // not advance (round, phase), which a 1-step watchdog must report as a
  // typed InvariantViolation rather than silently re-running.
  auto cfg = fuzz_style_config(2);
  cfg.chaos.invariants = true;
  cfg.chaos.watchdog_steps = 1;
  cfg.net.failover = true;
  cfg.net.fault.fail_stops = {{1, 3}};
  const auto inputs = keyed_inputs(cfg.v, 400);
  algo::SampleSortProgram<std::uint64_t> prog;
  em::EmEngine e(cfg);
  try {
    (void)e.run(prog, inputs);
    FAIL() << "expected the watchdog to fire";
  } catch (const InvariantViolation& iv) {
    EXPECT_EQ(iv.which(), Invariant::kWatchdog) << iv.what();
  }
}

// --------------------------------------------------------- chaos plans ----

TEST(Chaos, PlanJsonRoundTripsExactly) {
  PlanShape shape;
  shape.p = 2;
  shape.quota_min_bytes = 1000;
  shape.quota_max_bytes = 2000;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) seeds.push_back(seed);
  // The full-width seeds fuzz() derives for its plans: a double cannot
  // hold them, so the repro only replays if the reader keeps every bit.
  for (std::uint64_t i = 0; i < 16; ++i) {
    seeds.push_back(pdm::fault_mix(1 ^ (0xC2B2AE3D27D4EB4FULL * (i + 1))));
  }
  for (std::uint64_t seed : seeds) {
    const ChaosPlan plan = ChaosPlan::generate(seed, shape);
    ASSERT_FALSE(plan.events.empty());
    const ChaosPlan parsed = ChaosPlan::parse_json(plan.to_json());
    EXPECT_EQ(parsed.seed, plan.seed);
    EXPECT_EQ(parsed.events, plan.events) << plan.to_json();
  }
}

TEST(Chaos, ParseJsonRejectsMalformedInput) {
  const char* bad[] = {
      "",
      "{",
      "{}",  // missing seed
      R"({"seed": 0, "events": []})",
      R"({"seed": 1, "events": [{"proc": 0}]})",  // event without a kind
      R"({"seed": 1, "events": [{"kind": "meteor-strike"}]})",
      R"({"bogus": 1})",
      R"({"seed": 7.9, "events": []})",
      R"({"seed": 7, "seed": 8, "events": []})",
      R"({"seed": 1, "events": [{"kind": "kill", "proc": -4294967295}]})",
      R"({"seed": 1, "events": [{"kind": "kill", "value": 2.5}]})",
      R"({"seed": 1, "events": []} x)",
  };
  for (const char* text : bad) {
    try {
      (void)ChaosPlan::parse_json(text);
      FAIL() << "accepted: " << text;
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kConfig) << text;
    }
  }
}

TEST(Chaos, GenerateIsPureFunctionOfSeed) {
  PlanShape shape;
  shape.p = 2;
  std::set<std::string> distinct;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const ChaosPlan a = ChaosPlan::generate(seed, shape);
    const ChaosPlan b = ChaosPlan::generate(seed, shape);
    EXPECT_EQ(a.events, b.events) << "seed " << seed;
    distinct.insert(a.to_json());
  }
  EXPECT_GT(distinct.size(), 8u) << "seeds should draw diverse plans";
}

TEST(Chaos, ApplyLowersEveryFaultSurface) {
  using K = ChaosEvent::Kind;
  ChaosPlan plan;
  plan.seed = 5;
  plan.events = {
      {K::kTransientRead, 0, 3, 0.0},  {K::kLinkDrop, 0, 0, 0.1},
      {K::kLinkDrop, 0, 0, 0.05},      {K::kKill, 1, 2, 0.0},
      {K::kRejoin, 1, 4, 0.0},         {K::kDiskQuota, 0, 5000, 0.0},
  };
  cgm::MachineConfig cfg;
  cfg.v = 8;
  cfg.p = 2;
  plan.apply(cfg);

  ASSERT_EQ(cfg.fault_per_proc.size(), 2u);
  EXPECT_EQ(cfg.fault_per_proc[0].transient_read_at, 3u);
  EXPECT_NE(cfg.fault_per_proc[0].seed, cfg.fault_per_proc[1].seed);
  EXPECT_DOUBLE_EQ(cfg.net.fault.drop_prob, 0.1);  // max of the two events
  ASSERT_EQ(cfg.net.fault.fail_stops.size(), 1u);
  EXPECT_EQ(cfg.net.fault.fail_stops[0].proc, 1u);
  ASSERT_EQ(cfg.net.fault.rejoins.size(), 1u);
  EXPECT_EQ(cfg.net.fault.rejoins[0].step, 4u);
  EXPECT_TRUE(cfg.net.enabled);
  EXPECT_TRUE(cfg.net.failover);
  EXPECT_TRUE(cfg.checkpointing);
  ASSERT_EQ(cfg.chaos.disk_quota_per_proc.size(), 2u);
  EXPECT_EQ(cfg.chaos.disk_quota_per_proc[0], 5000u);
  EXPECT_EQ(cfg.chaos.disk_quota_per_proc[1], 0u);
  cfg.validate();  // an applied plan is always a legal machine
}

TEST(Chaos, ApplyDropsOrphanRejoinAndRejectsBadProc) {
  // A rejoin whose kill was shrunk away is a reboot of a live machine — a
  // no-op, so the shrinker may remove kills and rejoins independently.
  ChaosPlan orphan;
  orphan.seed = 6;
  orphan.events = {{ChaosEvent::Kind::kRejoin, 1, 4, 0.0}};
  cgm::MachineConfig cfg;
  cfg.v = 8;
  cfg.p = 2;
  orphan.apply(cfg);
  EXPECT_TRUE(cfg.net.fault.rejoins.empty());
  cfg.validate();

  ChaosPlan bad;
  bad.seed = 7;
  bad.events = {{ChaosEvent::Kind::kTransientRead, 7, 1, 0.0}};
  cgm::MachineConfig cfg2;
  cfg2.v = 8;
  cfg2.p = 2;
  try {
    bad.apply(cfg2);
    FAIL() << "expected kConfig for an out-of-range processor";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kConfig);
  }
}

// --------------------------------------------------------------- fuzzer ---

TEST(Chaos, FuzzSweepIsCleanAndDeterministic) {
  FuzzMachine m;
  PlanShape shape;
  shape.p = m.p;
  shape.quota_min_bytes = 150000;  // straddles the workload footprint
  shape.quota_max_bytes = 500000;
  const FuzzReport r1 = fuzz(42, 12, m, shape);
  EXPECT_EQ(r1.runs, 12u);
  EXPECT_TRUE(r1.ok()) << r1.summary()
                       << (r1.findings.empty()
                               ? ""
                               : "\nfirst: " + r1.findings[0].detail + "\n" +
                                     r1.findings[0].plan.to_json());
  const FuzzReport r2 = fuzz(42, 12, m, shape);
  for (int s = 0; s < 6; ++s) {
    EXPECT_EQ(r1.by_status[s], r2.by_status[s])
        << "status " << to_string(static_cast<FuzzStatus>(s));
  }
}

// -------------------------------------------------------------- shrinker --

TEST(Chaos, ShrinkerFindsTheOneMinimalCore) {
  // Pure-predicate ddmin: the "failure" needs the proc-1 bitflip AND the
  // link-drop; six other events are noise the shrinker must remove.
  using K = ChaosEvent::Kind;
  ChaosPlan plan;
  plan.seed = 9;
  plan.events = {
      {K::kTransientRead, 0, 1, 0.0}, {K::kBitflip, 1, 4, 0.0},
      {K::kLinkDelay, 0, 0, 0.05},    {K::kTornWrite, 0, 6, 0.0},
      {K::kLinkDrop, 0, 0, 0.1},      {K::kTransientWrite, 1, 2, 0.0},
      {K::kLinkDup, 0, 0, 0.02},      {K::kDiskQuota, 0, 9999, 0.0},
  };
  auto has = [](const ChaosPlan& p, auto pred) {
    for (const auto& e : p.events) {
      if (pred(e)) return true;
    }
    return false;
  };
  const auto still_fails = [&](const ChaosPlan& p) {
    return has(p, [](const ChaosEvent& e) {
             return e.kind == K::kBitflip && e.proc == 1;
           }) &&
           has(p, [](const ChaosEvent& e) { return e.kind == K::kLinkDrop; });
  };
  const ShrinkResult r = shrink(plan, still_fails);
  ASSERT_EQ(r.plan.events.size(), 2u);
  EXPECT_TRUE(still_fails(r.plan));
  EXPECT_EQ(r.plan.seed, plan.seed);
  EXPECT_GT(r.tests, 0u);
}

TEST(Chaos, ShrinkerRejectsANonFailingPlan) {
  ChaosPlan plan;
  plan.seed = 3;
  plan.events = {{ChaosEvent::Kind::kLinkDrop, 0, 0, 0.1}};
  try {
    (void)shrink(plan, [](const ChaosPlan&) { return false; });
    FAIL() << "expected kConfig";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kConfig);
  }
}

TEST(Chaos, ShrinkerReducesSeededEngineRegressionToThreeEventsOrFewer) {
  // A seeded regression: a deliberately mis-tuned watchdog (threshold 1)
  // turns the legitimate fail-over replay a kKill induces into a kWatchdog
  // violation. Buried among six benign events, the shrinker must isolate
  // the kill (<= 3 events per the harness's acceptance bar).
  using K = ChaosEvent::Kind;
  ChaosPlan plan;
  plan.seed = 21;
  plan.events = {
      {K::kTransientRead, 0, 5, 0.0},  {K::kLinkDelay, 0, 0, 0.05},
      {K::kKill, 1, 3, 0.0},           {K::kTransientWrite, 1, 7, 0.0},
      {K::kLinkDup, 0, 0, 0.03},       {K::kLinkReorder, 0, 0, 0.04},
      {K::kDiskQuota, 0, 600000, 0.0},
  };
  const auto inputs = keyed_inputs(8, 400);
  const auto trips_watchdog = [&](const ChaosPlan& candidate) {
    cgm::MachineConfig cfg = fuzz_style_config(2);
    try {
      candidate.apply(cfg);
      cfg.chaos.invariants = true;
      cfg.chaos.watchdog_steps = 1;
      em::EmEngine engine(cfg);
      algo::SampleSortProgram<std::uint64_t> prog;
      (void)engine.run(prog, inputs);
    } catch (const InvariantViolation& iv) {
      return iv.which() == Invariant::kWatchdog;
    } catch (const Error&) {
      return false;
    }
    return false;
  };
  ASSERT_TRUE(trips_watchdog(plan)) << "seeded regression must reproduce";
  const ShrinkResult r = shrink(plan, trips_watchdog);
  EXPECT_LE(r.plan.events.size(), 3u);
  bool has_kill = false;
  for (const auto& e : r.plan.events) has_kill |= e.kind == K::kKill;
  EXPECT_TRUE(has_kill) << "the kill is the regression's core";
}

// ------------------------------------------------- schedule chaos events --

TEST(ChaosSchedule, ApplyLowersScheduleEventAndForcesNet) {
  ChaosPlan plan;
  plan.seed = 9;
  plan.events = {{ChaosEvent::Kind::kSchedule, 0, 2, 0.0}};
  cgm::MachineConfig cfg;
  cfg.v = 8;
  cfg.p = 2;
  plan.apply(cfg);
  EXPECT_EQ(cfg.net.schedule, routing::ScheduleKind::kTree);
  EXPECT_TRUE(cfg.net.enabled);
  cfg.validate();

  // Later events win, matching how a JSON repro reads top to bottom.
  ChaosPlan two;
  two.seed = 10;
  two.events = {{ChaosEvent::Kind::kSchedule, 0, 1, 0.0},
                {ChaosEvent::Kind::kSchedule, 0, 3, 0.0}};
  cgm::MachineConfig cfg2;
  cfg2.v = 8;
  cfg2.p = 2;
  two.apply(cfg2);
  EXPECT_EQ(cfg2.net.schedule, routing::ScheduleKind::kHyperSystolic);
}

TEST(ChaosSchedule, ApplyRejectsUnknownScheduleIndex) {
  ChaosPlan plan;
  plan.seed = 11;
  plan.events = {{ChaosEvent::Kind::kSchedule, 0, 4, 0.0}};
  // Rejected typed even on shapes where the event would otherwise be inert.
  for (std::uint32_t p : {1u, 2u}) {
    cgm::MachineConfig cfg;
    cfg.v = 8;
    cfg.p = p;
    try {
      plan.apply(cfg);
      FAIL() << "accepted schedule index 4 on p=" << p;
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kConfig);
    }
  }
}

TEST(ChaosSchedule, ScheduleEventIsInertOnOneProcessor) {
  // Like the link kinds: no network on p == 1, so the event drops cleanly
  // (the shrinker may carry it across shapes without inventing a config).
  ChaosPlan plan;
  plan.seed = 12;
  plan.events = {{ChaosEvent::Kind::kSchedule, 0, 1, 0.0}};
  cgm::MachineConfig cfg;
  cfg.v = 4;
  cfg.p = 1;
  plan.apply(cfg);
  EXPECT_EQ(cfg.net.schedule, routing::ScheduleKind::kDirect);
  EXPECT_FALSE(cfg.net.enabled);
  cfg.validate();
}

TEST(ChaosSchedule, GenerateDrawsSchedulesOnlyWhenAllowed) {
  PlanShape off;
  off.p = 2;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const ChaosEvent& e : ChaosPlan::generate(seed, off).events) {
      EXPECT_NE(e.kind, ChaosEvent::Kind::kSchedule) << "seed " << seed;
    }
  }
  PlanShape on = off;
  on.allow_schedule = true;
  std::set<std::uint64_t> drawn;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const ChaosEvent& e : ChaosPlan::generate(seed, on).events) {
      if (e.kind != ChaosEvent::Kind::kSchedule) continue;
      EXPECT_LE(e.value, 3u);
      drawn.insert(e.value);
    }
  }
  EXPECT_GE(drawn.size(), 2u) << "40 seeds should draw several schedule kinds";
}

TEST(ChaosSchedule, JsonRoundTripsScheduleEvents) {
  ChaosPlan plan;
  plan.seed = 13;
  plan.events = {{ChaosEvent::Kind::kSchedule, 0, 3, 0.0},
                 {ChaosEvent::Kind::kLinkDrop, 0, 0, 0.05}};
  const ChaosPlan parsed = ChaosPlan::parse_json(plan.to_json());
  EXPECT_EQ(parsed.events, plan.events);
  EXPECT_NE(plan.to_json().find("\"schedule\""), std::string::npos);
}

TEST(ChaosSchedule, FuzzSweepUnderSchedulesIsClean) {
  // Schedule events compose with every other surface the generator draws:
  // whatever collective routes the messages, the contract stays "same bytes
  // as the direct clean run, or a typed recoverable failure".
  FuzzMachine m;
  PlanShape shape;
  shape.p = m.p;
  shape.allow_schedule = true;
  const FuzzReport r = fuzz(77, 10, m, shape);
  EXPECT_EQ(r.runs, 10u);
  EXPECT_TRUE(r.ok()) << r.summary()
                      << (r.findings.empty()
                              ? ""
                              : "\nfirst: " + r.findings[0].detail + "\n" +
                                    r.findings[0].plan.to_json());
}
