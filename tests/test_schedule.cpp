// Pluggable collective schedules: the generator family (direct, ring, tree,
// hyper-systolic), the pre-run schedule verifier, and the engine integration.
//
// Property battery over every generator x machine size x h-relation shape:
// the verifier accepts every derived schedule, an independent delivery
// ledger re-proves exactly-once, hand-built bad schedules (dropped pair,
// duplicate delivery, self-send, unbalanced step, wrong hold, degree
// overflow) are rejected with a typed IoError(kConfig) before any run, and
// the engine produces bit-identical outputs and h-relation accounting under
// every schedule, direct included, against in-memory staging (network off)
// — across threading modes, async I/O, lossy links, fail-over, and rejoin.
// A schedule that collapses to one all-pairs step runs direct's exact wire,
// and step 0 of every schedule is posted during compute. On a multi-root
// file layout the aggregating schedules must measurably shrink
// host-crossing wire bytes.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "algo/sort.h"
#include "emcgm/em_engine.h"
#include "obs/trace.h"
#include "routing/schedule.h"
#include "scoped_temp_dir.h"
#include "util/rng.h"

using namespace emcgm;
using routing::CommSchedule;
using routing::Flow;
using routing::ScheduleKind;
using routing::ScheduleStep;
using routing::Transfer;
using routing::WeightMatrix;

namespace {

const ScheduleKind kAllScheduleKinds[] = {
    ScheduleKind::kDirect, ScheduleKind::kRing, ScheduleKind::kTree,
    ScheduleKind::kHyperSystolic};

std::vector<std::uint32_t> identity_machines(std::uint32_t p) {
  std::vector<std::uint32_t> m(p);
  std::iota(m.begin(), m.end(), 0u);
  return m;
}

std::vector<std::uint32_t> all_hosts(std::uint32_t p) {
  std::vector<std::uint32_t> h(p);
  std::iota(h.begin(), h.end(), 0u);
  return h;
}

/// Independent exactly-once ledger: walk the steps with a plain
/// location map (no shared code with the verifier) and count arrivals.
void ledger_check(const CommSchedule& s) {
  std::map<Flow, std::uint32_t> where;
  for (std::uint32_t o : s.hosts) {
    for (std::uint32_t f : s.hosts) {
      if (o != f) where[{o, f}] = o;
    }
  }
  std::map<Flow, int> arrivals;
  for (const ScheduleStep& step : s.steps) {
    std::vector<std::pair<Flow, std::uint32_t>> moves;
    for (const Transfer& t : step.transfers) {
      for (const Flow& fl : t.flows) {
        ASSERT_TRUE(where.count(fl)) << to_string(s.kind);
        ASSERT_EQ(where[fl], t.src) << to_string(s.kind);
        moves.push_back({fl, t.dst});
      }
    }
    for (const auto& [fl, dst] : moves) {
      where[fl] = dst;
      if (dst == fl.second) {
        arrivals[fl] += 1;
        where.erase(fl);
      }
    }
  }
  for (std::uint32_t o : s.hosts) {
    for (std::uint32_t f : s.hosts) {
      if (o == f) continue;
      EXPECT_EQ((arrivals[Flow{o, f}]), 1)
          << to_string(s.kind) << " pair " << o << "->" << f;
    }
  }
  EXPECT_TRUE(where.empty()) << to_string(s.kind) << " parked flows remain";
}

WeightMatrix uniform_weights(std::uint32_t p) {
  WeightMatrix w(p, std::vector<std::uint64_t>(p, 0));
  for (std::uint32_t o = 0; o < p; ++o) {
    for (std::uint32_t f = 0; f < p; ++f) {
      if (o != f) w[o][f] = 1;
    }
  }
  return w;
}

// ----------------------------------------------------- engine test rig ----

std::vector<cgm::PartitionSet> sort_inputs(
    std::uint32_t v, const std::vector<std::uint64_t>& keys) {
  return {cgm::even_chunks<std::uint64_t>(keys, v)};
}

cgm::MachineConfig sched_cfg(std::uint32_t v, std::uint32_t p,
                             ScheduleKind kind, bool threads = false) {
  cgm::MachineConfig cfg;
  cfg.v = v;
  cfg.p = p;
  cfg.disk.num_disks = 2;
  cfg.disk.block_bytes = 512;
  cfg.checkpointing = true;
  cfg.net.enabled = true;
  cfg.net.schedule = kind;
  cfg.use_threads = threads;
  return cfg;
}

/// The reference every schedule must reproduce: the same machine with the
/// network off, so crossing batches are staged in memory — a delivery path
/// that shares no code with the schedule interpreter.
std::vector<cgm::PartitionSet> unrouted_run(
    std::uint32_t p, const std::vector<std::uint64_t>& keys,
    cgm::RunResult* result = nullptr) {
  auto cfg = sched_cfg(8, p, ScheduleKind::kDirect);
  cfg.net.enabled = false;
  em::EmEngine e(cfg);
  algo::SampleSortProgram<std::uint64_t> prog;
  auto out = e.run(prog, sort_inputs(8, keys));
  EXPECT_EQ(e.schedule(), nullptr);  // no network, nothing to route
  if (result) *result = e.last_result();
  return out;
}

}  // namespace

// ------------------------------------------------------------ generators --

TEST(ScheduleGen, DirectShapeMatchesTodaysRound) {
  const auto s = routing::make_schedule(ScheduleKind::kDirect, 4,
                                        all_hosts(4), identity_machines(4));
  ASSERT_EQ(s.steps.size(), 1u);
  EXPECT_EQ(s.transfer_count(), 12u);  // n * (n - 1) ordered pairs
  EXPECT_EQ(s.max_degree, 3u);
  EXPECT_DOUBLE_EQ(s.slack, 1.0);
  const auto report = routing::verify_schedule(s);
  EXPECT_EQ(report.relay_weight, 0u);  // direct never forwards
}

TEST(ScheduleGen, RingShapeForwardsAlongSuccessorLinks) {
  const auto s = routing::make_schedule(ScheduleKind::kRing, 4, all_hosts(4),
                                        identity_machines(4));
  ASSERT_EQ(s.steps.size(), 3u);  // n - 1 hops
  for (const auto& step : s.steps) {
    for (const Transfer& t : step.transfers) {
      EXPECT_EQ(t.dst, (t.src + 1) % 4) << "ring must use successor links";
    }
  }
  const auto report = routing::verify_schedule(s);
  EXPECT_GT(report.relay_weight, 0u);  // distance-2+ pairs are relayed
}

TEST(ScheduleGen, EveryGeneratorPassesVerifierAcrossMachineSizes) {
  for (ScheduleKind kind : kAllScheduleKinds) {
    for (std::uint32_t p : {2u, 3u, 4u, 8u}) {
      const auto s = routing::make_schedule(kind, p, all_hosts(p),
                                            identity_machines(p));
      EXPECT_EQ(s.kind, kind);
      EXPECT_EQ(s.p, p);
      EXPECT_NO_THROW(routing::verify_schedule(s))
          << to_string(kind) << " p=" << p;
      ledger_check(s);
    }
  }
}

TEST(ScheduleGen, EveryGeneratorPassesVerifierOnMultiRootMachineMaps) {
  const std::vector<std::vector<std::uint32_t>> maps = {
      {0, 0, 1, 1},
      {0, 1, 1, 1},
      {0, 0, 0, 0, 1, 1, 1, 1},
      {0, 0, 1, 1, 2, 2, 3, 3},
      {0, 1, 2, 0, 1, 2, 0, 1},
  };
  for (const auto& machines : maps) {
    const auto p = static_cast<std::uint32_t>(machines.size());
    for (ScheduleKind kind : kAllScheduleKinds) {
      const auto s = routing::make_schedule(kind, p, all_hosts(p), machines);
      EXPECT_NO_THROW(routing::verify_schedule(s))
          << to_string(kind) << " p=" << p;
      ledger_check(s);
    }
  }
}

TEST(ScheduleGen, EveryGeneratorPassesVerifierOnDegradedHostSets) {
  // Fail-over shrinks the live set to an arbitrary subset; the re-derived
  // schedule must stay correct on every shape, including machine maps
  // whose machines lost members.
  const std::vector<std::vector<std::uint32_t>> live_sets = {
      {0, 2, 3}, {1, 3}, {0, 1, 2, 4, 6, 7}, {5}};
  const std::vector<std::uint32_t> machines = {0, 0, 1, 1, 2, 2, 3, 3};
  for (const auto& hosts : live_sets) {
    for (ScheduleKind kind : kAllScheduleKinds) {
      const auto s = routing::make_schedule(kind, 8, hosts, machines);
      EXPECT_EQ(s.hosts, hosts);
      EXPECT_NO_THROW(routing::verify_schedule(s))
          << to_string(kind) << " live=" << hosts.size();
      ledger_check(s);
    }
  }
}

TEST(ScheduleGen, SingleHostScheduleIsEmpty) {
  for (ScheduleKind kind : kAllScheduleKinds) {
    const auto s =
        routing::make_schedule(kind, 4, {2}, identity_machines(4));
    EXPECT_TRUE(s.steps.empty()) << to_string(kind);
    EXPECT_NO_THROW(routing::verify_schedule(s));
  }
}

TEST(ScheduleGen, WeightedRelationsStayWithinDeclaredSlack) {
  const std::uint32_t p = 4;
  // Skewed, empty, and single-hot-spot h-relations: the balance contract
  // (per-step weight <= slack * h) must hold for every generator on every
  // shape, not just the uniform one the engine proves pre-run.
  WeightMatrix skewed(p, std::vector<std::uint64_t>(p, 0));
  for (std::uint32_t o = 0; o < p; ++o) {
    for (std::uint32_t f = 0; f < p; ++f) {
      if (o != f) skewed[o][f] = (o + 1) * (f + 2) * 100;
    }
  }
  WeightMatrix empty(p, std::vector<std::uint64_t>(p, 0));
  WeightMatrix hot(p, std::vector<std::uint64_t>(p, 0));
  hot[0][3] = 100000;
  for (const auto& [name, w] :
       std::map<std::string, const WeightMatrix*>{
           {"skewed", &skewed}, {"empty", &empty}, {"hot", &hot}}) {
    for (const auto& machines :
         {identity_machines(p), std::vector<std::uint32_t>{0, 0, 1, 1}}) {
      for (ScheduleKind kind : kAllScheduleKinds) {
        const auto s = routing::make_schedule(kind, p, all_hosts(p), machines);
        EXPECT_NO_THROW(routing::verify_schedule(s, *w))
            << to_string(kind) << " on " << name;
      }
    }
  }
}

TEST(ScheduleGen, PureHyperSystolicUsesStridedLinks) {
  // Under the identity machine map the hierarchical hyper-systolic exchange
  // degenerates to the pure Galli pattern: every transfer uses a stride-K
  // or stride-1 ring link over the leaders (which are all hosts here).
  const std::uint32_t p = 8;  // K = ceil(sqrt(8)) = 3
  const auto s = routing::make_schedule(ScheduleKind::kHyperSystolic, p,
                                        all_hosts(p), identity_machines(p));
  for (const auto& step : s.steps) {
    for (const Transfer& t : step.transfers) {
      const std::uint32_t d = (t.dst + p - t.src) % p;
      EXPECT_TRUE(d == 3 || d == 1)
          << "link " << t.src << "->" << t.dst << " has stride " << d;
    }
  }
  EXPECT_NO_THROW(routing::verify_schedule(s));
}

TEST(ScheduleGen, KindStringsRoundTrip) {
  for (ScheduleKind kind : kAllScheduleKinds) {
    EXPECT_EQ(routing::schedule_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(routing::schedule_kind_from_string("butterfly"), IoError);
  try {
    routing::schedule_kind_from_string("butterfly");
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kConfig);
  }
}

TEST(ScheduleGen, GeneratorRejectsMalformedHostSets) {
  const auto m = identity_machines(4);
  EXPECT_THROW(routing::make_schedule(ScheduleKind::kRing, 4, {0, 0, 1}, m),
               IoError);  // duplicate host
  // An unsorted live set is canonicalized, not rejected.
  EXPECT_EQ(routing::make_schedule(ScheduleKind::kRing, 4, {3, 0}, m).hosts,
            (std::vector<std::uint32_t>{0, 3}));
  EXPECT_THROW(routing::make_schedule(ScheduleKind::kRing, 4, {0, 4}, m),
               IoError);  // out of range
  EXPECT_THROW(
      routing::make_schedule(ScheduleKind::kRing, 4, {0, 1},
                             std::vector<std::uint32_t>{0, 1}),
      IoError);  // machine map must cover all p processors
}

// -------------------------------------------------------------- verifier --

namespace {

/// The direct schedule, hand-built so the bad-schedule tests can mutate it.
CommSchedule hand_direct(std::uint32_t p) {
  CommSchedule s;
  s.kind = ScheduleKind::kDirect;
  s.p = p;
  s.hosts = all_hosts(p);
  s.max_degree = p - 1;
  s.slack = 1.0;
  ScheduleStep step;
  for (std::uint32_t o = 0; o < p; ++o) {
    for (std::uint32_t f = 0; f < p; ++f) {
      if (o != f) step.transfers.push_back({o, f, {{o, f}}});
    }
  }
  s.steps.push_back(std::move(step));
  return s;
}

std::string rejection_of(const CommSchedule& s, const WeightMatrix& w) {
  try {
    routing::verify_schedule(s, w);
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kConfig);
    return e.what();
  }
  return "";
}

std::string rejection_of(const CommSchedule& s) {
  return rejection_of(s, uniform_weights(s.p));
}

}  // namespace

TEST(ScheduleVerify, RejectsDroppedPair) {
  auto s = hand_direct(3);
  s.steps[0].transfers.pop_back();  // pair (2, 1) never travels
  const auto msg = rejection_of(s);
  EXPECT_NE(msg.find("never delivered"), std::string::npos) << msg;
}

TEST(ScheduleVerify, RejectsDuplicateDeliveryInOneStep) {
  auto s = hand_direct(3);
  s.steps[0].transfers.push_back({0, 1, {{0, 1}}});  // (0,1) travels twice
  const auto msg = rejection_of(s);
  EXPECT_NE(msg.find("claimed by two transfers"), std::string::npos) << msg;
}

TEST(ScheduleVerify, RejectsResendAfterDelivery) {
  auto s = hand_direct(3);
  ScheduleStep again;
  again.transfers.push_back({0, 1, {{0, 1}}});
  s.steps.push_back(again);  // delivered in step 0, moved again in step 1
  const auto msg = rejection_of(s);
  EXPECT_NE(msg.find("moved again after delivery"), std::string::npos) << msg;
}

TEST(ScheduleVerify, RejectsSelfSend) {
  auto s = hand_direct(3);
  s.steps[0].transfers.push_back({1, 1, {{1, 2}}});
  const auto msg = rejection_of(s);
  EXPECT_NE(msg.find("self-send"), std::string::npos) << msg;
}

TEST(ScheduleVerify, RejectsTransferOfFlowHeldElsewhere) {
  auto s = hand_direct(3);
  // Host 0 claims to forward (1, 2), which still sits at host 1.
  s.steps[0].transfers.push_back({0, 2, {{1, 2}}});
  // Drop the legitimate carrier so the duplicate check does not fire first.
  auto& ts = s.steps[0].transfers;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts[i].src == 1 && ts[i].dst == 2) {
      ts.erase(ts.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  const auto msg = rejection_of(s);
  EXPECT_NE(msg.find("held at"), std::string::npos) << msg;
}

TEST(ScheduleVerify, RejectsUnbalancedStep) {
  // A relaying host whose per-step sent weight exceeds slack * h: flows
  // (0,1), (0,2), (1,2) with (1,2) routed through host 0 — step 1 has host
  // 0 send weight 3 while h = 2 and the declared slack is 1.0.
  CommSchedule s;
  s.kind = ScheduleKind::kRing;
  s.p = 3;
  s.hosts = all_hosts(3);
  s.max_degree = 2;
  s.slack = 1.0;
  ScheduleStep s0;
  s0.transfers.push_back({1, 0, {{1, 2}, {1, 0}}});
  s0.transfers.push_back({2, 0, {{2, 0}}});
  s0.transfers.push_back({2, 1, {{2, 1}}});
  ScheduleStep s1;
  s1.transfers.push_back({0, 1, {{0, 1}}});
  s1.transfers.push_back({0, 2, {{0, 2}, {1, 2}}});
  s.steps = {s0, s1};
  const auto msg = rejection_of(s);
  EXPECT_NE(msg.find("slack"), std::string::npos) << msg;
  // The same plan with the honest slack declaration passes.
  s.slack = 1.5;
  EXPECT_NO_THROW(routing::verify_schedule(s));
}

TEST(ScheduleVerify, RejectsDegreeAboveDeclaration) {
  auto s = hand_direct(3);
  s.max_degree = 1;  // the all-to-all step has degree 2
  const auto msg = rejection_of(s);
  EXPECT_NE(msg.find("max_degree"), std::string::npos) << msg;
}

TEST(ScheduleVerify, RejectsEmptyTransfer) {
  auto s = hand_direct(3);
  s.steps[0].transfers.push_back({0, 1, {}});
  const auto msg = rejection_of(s);
  EXPECT_NE(msg.find("carries no flows"), std::string::npos) << msg;
}

TEST(ScheduleVerify, RejectsUnterminatedStepList) {
  auto s = hand_direct(3);
  s.steps.resize(4 * (3 + 1) + 1);  // trailing empty steps past the bound
  const auto msg = rejection_of(s);
  EXPECT_NE(msg.find("termination bound"), std::string::npos) << msg;
}

TEST(ScheduleVerify, RejectsWeightOnDeadOrDegeneratePair) {
  auto s = hand_direct(4);
  s.hosts = {0, 1, 2};  // host 3 is dead
  auto& ts = s.steps[0].transfers;
  for (std::size_t i = ts.size(); i-- > 0;) {
    if (ts[i].src == 3 || ts[i].dst == 3) {
      ts.erase(ts.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  EXPECT_NO_THROW(routing::verify_schedule(s));
  auto w = uniform_weights(4);
  for (std::uint32_t q = 0; q < 4; ++q) w[q][3] = w[3][q] = 0;
  w[0][3] = 7;  // weight into the dead host
  const auto msg = rejection_of(s, w);
  EXPECT_NE(msg.find("dead or degenerate"), std::string::npos) << msg;
}

TEST(ScheduleVerify, RejectsBadWeightMatrixShape) {
  const auto s = hand_direct(3);
  WeightMatrix w(2, std::vector<std::uint64_t>(3, 0));
  const auto msg = rejection_of(s, w);
  EXPECT_NE(msg.find("p x p"), std::string::npos) << msg;
}

TEST(ScheduleVerify, AcceptsEveryBuiltinAndReportsBalance) {
  for (ScheduleKind kind : kAllScheduleKinds) {
    const auto s = routing::make_schedule(kind, 8, all_hosts(8),
                                          std::vector<std::uint32_t>{
                                              0, 0, 1, 1, 2, 2, 3, 3});
    const auto report = routing::verify_schedule(s);
    EXPECT_EQ(report.steps, s.steps.size());
    EXPECT_GT(report.transfers, 0u);
    EXPECT_LE(report.max_degree, s.max_degree) << to_string(kind);
    EXPECT_EQ(report.h, 7u);  // uniform weights over 8 hosts
    EXPECT_LE(static_cast<double>(report.max_step_sent),
              s.slack * 7.0 + 1e-9)
        << to_string(kind);
  }
}

// ------------------------------------------------------------------ json --

TEST(ScheduleJson, RoundTripsEveryBuiltin) {
  for (ScheduleKind kind : kAllScheduleKinds) {
    const auto s = routing::make_schedule(kind, 4, all_hosts(4),
                                          std::vector<std::uint32_t>{
                                              0, 0, 1, 1});
    const auto back = routing::parse_schedule_json(s.to_json());
    EXPECT_EQ(back, s) << to_string(kind);
  }
}

TEST(ScheduleJson, RejectsMalformedInput) {
  for (const char* bad : {
           "",
           "{",
           "[1, 2]",
           "{\"kind\": \"direct\"}",                      // missing p
           "{\"p\": 0, \"kind\": \"direct\"}",            // empty machine
           "{\"p\": 2, \"kind\": \"nope\"}",              // unknown kind
           "{\"p\": 2, \"kind\": \"direct\", \"steps\": 3}",
           "{\"p\": 4294967298, \"kind\": \"direct\"}",
           "{\"p\": 2.5, \"kind\": \"direct\"}",
           "{\"p\": 2, \"kind\": \"direct\", \"steps\": [[{\"src\": "
           "-4294967296, \"dst\": 1, \"flows\": [[0, 1]]}]]}",
           "{\"p\": 2, \"kind\": \"direct\"} junk",
       }) {
    EXPECT_THROW(routing::parse_schedule_json(bad), IoError) << bad;
  }
}

// -------------------------------------------------------------- machines --

TEST(ScheduleMachines, DerivedFromFileRootParents) {
  EXPECT_EQ(routing::machines_from_roots(3, {}),
            (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(routing::machines_from_roots(
                4, {"/mnt/a/p0", "/mnt/a/p1", "/mnt/b/p2", "/mnt/b/p3"}),
            (std::vector<std::uint32_t>{0, 0, 1, 1}));
  // Trailing slashes do not split a machine; id order is first appearance.
  EXPECT_EQ(routing::machines_from_roots(
                3, {"/mnt/b/p0/", "/mnt/a/p1", "/mnt/b/p2"}),
            (std::vector<std::uint32_t>{0, 1, 0}));
}

// ---------------------------------------------------------------- engine --

TEST(ScheduleEngine, ConfigRequiresNetworkForNonDirect) {
  auto cfg = sched_cfg(8, 2, ScheduleKind::kRing);
  cfg.net.enabled = false;
  cfg.net.failover = false;
  cfg.checkpointing = false;
  EXPECT_THROW(cfg.validate(), IoError);
  try {
    cfg.validate();
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kConfig);
  }
  cfg.net.enabled = true;
  EXPECT_NO_THROW(cfg.validate());
  // p == 1 never communicates: any schedule knob is vacuously fine.
  cfg.net.enabled = false;
  cfg.p = 1;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ScheduleEngine, EveryScheduleBitIdenticalToDirect) {
  const auto keys = random_keys(9119, 2500);
  algo::SampleSortProgram<std::uint64_t> prog;

  cgm::RunResult ref;
  const auto expected = unrouted_run(4, keys, &ref);
  const auto ref_bytes = ref.comm.total_bytes();
  const auto ref_steps = ref.io_per_step.size();
  ASSERT_GT(ref_bytes, 0u);

  for (ScheduleKind kind : kAllScheduleKinds) {
    for (bool threads : {false, true}) {
      em::EmEngine e(sched_cfg(8, 4, kind, threads));
      const auto got = e.run(prog, sort_inputs(8, keys));
      EXPECT_TRUE(expected == got)
          << to_string(kind) << " threads=" << threads;
      // Delivered payload (the realized h-relation) is schedule-invariant;
      // so is the superstep structure.
      EXPECT_EQ(e.last_result().comm.total_bytes(), ref_bytes)
          << to_string(kind);
      EXPECT_EQ(e.last_result().io_per_step.size(), ref_steps)
          << to_string(kind);
      EXPECT_GT(e.last_result().net.wire_bytes, 0u);
      ASSERT_NE(e.schedule(), nullptr);
      EXPECT_EQ(e.schedule()->kind, kind);
      if (kind == ScheduleKind::kDirect) {
        EXPECT_EQ(e.schedule()->steps.size(), 1u);  // the one-step case
      }
    }
  }
}

TEST(ScheduleEngine, EveryScheduleBitIdenticalUnderAsyncIo) {
  const auto keys = random_keys(3141, 2000);
  algo::SampleSortProgram<std::uint64_t> prog;
  const auto expected = unrouted_run(4, keys);

  for (ScheduleKind kind : kAllScheduleKinds) {
    for (bool threads : {false, true}) {
      auto cfg = sched_cfg(8, 4, kind, threads);
      cfg.io_threads = 2;
      em::EmEngine e(cfg);
      EXPECT_TRUE(expected == e.run(prog, sort_inputs(8, keys)))
          << to_string(kind) << " threads=" << threads;
    }
  }
}

TEST(ScheduleEngine, EveryScheduleBitIdenticalOverLossyLinks) {
  const auto keys = random_keys(2718, 2000);
  algo::SampleSortProgram<std::uint64_t> prog;
  cgm::RunResult ref;
  const auto expected = unrouted_run(4, keys, &ref);

  for (ScheduleKind kind : kAllScheduleKinds) {
    for (bool threads : {false, true}) {
      auto cfg = sched_cfg(8, 4, kind, threads);
      cfg.net.fault.seed = 77;
      cfg.net.fault.drop_prob = 0.05;
      cfg.net.fault.corrupt_prob = 0.02;
      cfg.net.retry.max_attempts = 16;
      em::EmEngine e(cfg);
      EXPECT_TRUE(expected == e.run(prog, sort_inputs(8, keys)))
          << to_string(kind) << " threads=" << threads;
      EXPECT_EQ(e.last_result().comm.total_bytes(), ref.comm.total_bytes())
          << to_string(kind) << " threads=" << threads;
    }
  }
}

TEST(ScheduleEngine, DegenerateSchedulesRunDirectsWire) {
  // A schedule that collapses to one all-pairs step is direct in all but
  // name: each host posts the same records to the same links during
  // compute, so the run check must name nothing against direct — over
  // lossy links, threads off and on. Tree on the identity machine map (no
  // file_roots) is direct at any p; at p = 2 every built-in is.
  const auto keys = random_keys(4747, 2000);
  algo::SampleSortProgram<std::uint64_t> prog;
  auto lossy_cfg = [](std::uint32_t p, ScheduleKind kind, bool threads) {
    auto cfg = sched_cfg(8, p, kind, threads);
    cfg.net.fault.seed = 5;
    cfg.net.fault.drop_prob = 0.05;
    cfg.net.retry.max_attempts = 16;
    return cfg;
  };
  const std::pair<std::uint32_t, ScheduleKind> cases[] = {
      {4, ScheduleKind::kTree},
      {2, ScheduleKind::kRing},
      {2, ScheduleKind::kTree},
      {2, ScheduleKind::kHyperSystolic}};
  for (bool threads : {false, true}) {
    for (const auto& [p, kind] : cases) {
      em::EmEngine direct(lossy_cfg(p, ScheduleKind::kDirect, threads));
      const auto want = direct.run(prog, sort_inputs(8, keys));
      ASSERT_GT(direct.last_result().net.retransmissions, 0u);
      em::EmEngine e(lossy_cfg(p, kind, threads));
      const auto got = e.run(prog, sort_inputs(8, keys));
      ASSERT_NE(e.schedule(), nullptr);
      EXPECT_EQ(e.schedule()->steps.size(), 1u) << to_string(kind);
      EXPECT_TRUE(want == got);
      EXPECT_EQ(cgm::run_mismatches(direct.last_result(), e.last_result()),
                "")
          << to_string(kind) << " p=" << p << " threads=" << threads;
    }
  }
}

TEST(ScheduleEngine, FailoverSweepUnderEverySchedule) {
  const auto keys = random_keys(5151, 2000);
  algo::SampleSortProgram<std::uint64_t> prog;
  em::EmEngine ref(sched_cfg(8, 4, ScheduleKind::kDirect));
  const auto expected = ref.run(prog, sort_inputs(8, keys));
  const auto steps = ref.last_result().io_per_step.size();

  // Relays, the hosts' arrival pass and the replay meet here: each kill
  // runs with threads off and on, and the run check must name nothing.
  std::uint64_t fired = 0;
  for (ScheduleKind kind : kAllScheduleKinds) {
    for (std::uint64_t step : {std::uint64_t{2}, steps / 2 + 1}) {
      cgm::RunResult runs[2];
      for (bool threads : {false, true}) {
        auto cfg = sched_cfg(8, 4, kind, threads);
        cfg.net.failover = true;
        cfg.net.fault.fail_stops = {{3, step}};
        em::EmEngine e(cfg);
        const auto got = e.run(prog, sort_inputs(8, keys));
        EXPECT_TRUE(expected == got) << to_string(kind) << " kill@" << step
                                     << " threads=" << threads;
        runs[threads] = e.last_result();
        if (e.last_result().failovers > 0) {
          // The degraded epoch re-derived its schedule over the survivors.
          ASSERT_NE(e.schedule(), nullptr);
          EXPECT_EQ(e.schedule()->hosts,
                    (std::vector<std::uint32_t>{0, 1, 2}));
        }
      }
      EXPECT_EQ(cgm::run_mismatches(runs[0], runs[1]), "")
          << to_string(kind) << " kill@" << step;
      fired += runs[0].failovers;
    }
  }
  EXPECT_GE(fired, 4u);
}

TEST(ScheduleEngine, RejoinSweepUnderEverySchedule) {
  const auto keys = random_keys(6262, 2000);
  algo::SampleSortProgram<std::uint64_t> prog;
  em::EmEngine ref(sched_cfg(8, 4, ScheduleKind::kDirect));
  const auto expected = ref.run(prog, sort_inputs(8, keys));

  std::uint64_t rejoined = 0;
  for (ScheduleKind kind : kAllScheduleKinds) {
    cgm::RunResult runs[2];
    for (bool threads : {false, true}) {
      auto cfg = sched_cfg(8, 4, kind, threads);
      cfg.net.failover = true;
      cfg.net.fault.fail_stops = {{2, 2}};
      cfg.net.fault.rejoins = {{2, 4}};
      em::EmEngine e(cfg);
      EXPECT_TRUE(expected == e.run(prog, sort_inputs(8, keys)))
          << to_string(kind) << " threads=" << threads;
      runs[threads] = e.last_result();
      if (e.last_result().rejoins > 0) {
        ASSERT_NE(e.schedule(), nullptr);
        // Back to full membership after the re-admission.
        EXPECT_EQ(e.schedule()->hosts,
                  (std::vector<std::uint32_t>{0, 1, 2, 3}));
      }
    }
    EXPECT_EQ(cgm::run_mismatches(runs[0], runs[1]), "") << to_string(kind);
    rejoined += runs[0].rejoins;
  }
  EXPECT_GE(rejoined, 2u);
}

TEST(ScheduleEngine, AggregatingSchedulesCutCrossingBytesOnTwoRootLayout) {
  // The point of tree / hyper-systolic: on a layout where the 4 processors
  // live on 2 machines, crossing wire bytes (frames whose link crosses the
  // machine boundary) must shrink vs direct — same delivered payload.
  const std::vector<std::string> roots = {
      "/tmp/emcgm_sched_hostA/p0", "/tmp/emcgm_sched_hostA/p1",
      "/tmp/emcgm_sched_hostB/p2", "/tmp/emcgm_sched_hostB/p3"};
  const auto keys = random_keys(8441, 2500);
  algo::SampleSortProgram<std::uint64_t> prog;

  auto run_with = [&](ScheduleKind kind) {
    for (const char* r : {"/tmp/emcgm_sched_hostA", "/tmp/emcgm_sched_hostB"})
      std::filesystem::remove_all(r);
    auto cfg = sched_cfg(8, 4, kind);
    cfg.backend = pdm::BackendKind::kFile;
    cfg.file_roots = roots;
    em::EmEngine e(cfg);
    const auto out = e.run(prog, sort_inputs(8, keys));
    struct R {
      std::vector<cgm::PartitionSet> out;
      net::NetStats net;
      std::uint64_t payload;
    } r{out, e.last_result().net, e.last_result().comm.total_bytes()};
    return r;
  };

  const auto direct = run_with(ScheduleKind::kDirect);
  ASSERT_GT(direct.net.crossing_wire_bytes, 0u);
  ASSERT_LT(direct.net.crossing_wire_bytes, direct.net.wire_bytes);
  for (ScheduleKind kind :
       {ScheduleKind::kTree, ScheduleKind::kHyperSystolic}) {
    const auto got = run_with(kind);
    EXPECT_TRUE(direct.out == got.out) << to_string(kind);
    EXPECT_EQ(got.payload, direct.payload);
    EXPECT_LT(got.net.crossing_wire_bytes, direct.net.crossing_wire_bytes)
        << to_string(kind) << ": aggregation must cut host-crossing bytes";
  }
  for (const char* r : {"/tmp/emcgm_sched_hostA", "/tmp/emcgm_sched_hostB"})
    std::filesystem::remove_all(r);
}

TEST(ScheduleEngine, StepZeroPostsFromHostsDuringCompute) {
  // Step 0 of every schedule travels during compute: on a traced tree run
  // over a 2-machine layout (gather, leader exchange, scatter) the hosts'
  // own shards carry net_post spans with bytes in them, and the barrier
  // runs only the later steps as sched_step rounds.
  for (bool threads : {false, true}) {
    test::ScopedTempDir machine_a("sched_post"), machine_b("sched_post");
    auto cfg = sched_cfg(8, 4, ScheduleKind::kTree, threads);
    cfg.backend = pdm::BackendKind::kFile;
    cfg.file_roots = {machine_a.path() + "/p0", machine_a.path() + "/p1",
                      machine_b.path() + "/p2", machine_b.path() + "/p3"};
    cfg.obs.trace = true;
    em::EmEngine e(cfg);
    algo::SampleSortProgram<std::uint64_t> prog;
    e.run(prog, sort_inputs(8, random_keys(3838, 2000)));
    ASSERT_NE(e.schedule(), nullptr);
    ASSERT_EQ(e.schedule()->steps.size(), 3u);
    const auto& shards = e.tracer()->shards();
    std::uint64_t posted = 0;
    for (std::uint32_t h = 0; h < 4; ++h) {
      for (const auto& span : shards[h].spans()) {
        if (span.kind == obs::SpanKind::kNetPost) posted += span.aux0;
      }
    }
    EXPECT_GT(posted, 0u) << "threads=" << threads;
    std::uint64_t barrier_steps = 0;
    for (const auto& span : shards.back().spans()) {  // engine shard
      if (span.kind != obs::SpanKind::kSchedStep) continue;
      EXPECT_GE(span.track, 1u) << "step 0 is not run at the barrier";
      barrier_steps += 1;
    }
    EXPECT_GT(barrier_steps, 0u);
  }
}

TEST(ScheduleEngine, TwoProcessorRunsWorkUnderEverySchedule) {
  // Degenerate sizes: with p = 2 every schedule collapses to (at most) the
  // single exchange step, and must still run and match.
  const auto keys = random_keys(1212, 1200);
  algo::SampleSortProgram<std::uint64_t> prog;
  const auto expected = unrouted_run(2, keys);
  for (ScheduleKind kind : kAllScheduleKinds) {
    em::EmEngine e(sched_cfg(8, 2, kind));
    EXPECT_TRUE(expected == e.run(prog, sort_inputs(8, keys)))
        << to_string(kind);
  }
}

// ---------------------------------------------------------------- custom --

TEST(ScheduleCustom, UserSuppliedRingBitIdenticalToDirect) {
  const auto keys = random_keys(4242, 2000);
  algo::SampleSortProgram<std::uint64_t> prog;
  em::EmEngine ref(sched_cfg(8, 4, ScheduleKind::kDirect));
  const auto expected = ref.run(prog, sort_inputs(8, keys));
  const auto ref_bytes = ref.last_result().comm.total_bytes();

  // A schedule exported by tools/schedule_check (or built here) replays via
  // the kCustom path: the JSON "kind" label is free.
  const auto ring = routing::make_schedule(ScheduleKind::kRing, 4,
                                           all_hosts(4), identity_machines(4));
  for (bool threads : {false, true}) {
    auto cfg = sched_cfg(8, 4, ScheduleKind::kCustom, threads);
    cfg.net.custom_schedule_json = ring.to_json();
    em::EmEngine e(cfg);
    EXPECT_TRUE(expected == e.run(prog, sort_inputs(8, keys)))
        << "threads=" << threads;
    EXPECT_EQ(e.last_result().comm.total_bytes(), ref_bytes);
    ASSERT_NE(e.schedule(), nullptr);
    EXPECT_EQ(e.schedule()->steps.size(), ring.steps.size());
  }
}

TEST(ScheduleCustom, ConfigRequiresScheduleJson) {
  auto cfg = sched_cfg(8, 4, ScheduleKind::kCustom);
  EXPECT_THROW(cfg.validate(), IoError);
  // ...and the json knob without kCustom is an inconsistent config too.
  auto cfg2 = sched_cfg(8, 4, ScheduleKind::kRing);
  cfg2.net.custom_schedule_json = "{}";
  EXPECT_THROW(cfg2.validate(), IoError);
}

TEST(ScheduleCustom, WrongMachineShapeRejectedAtRunStart) {
  // A schedule covering p=2 cannot drive a p=4 machine: typed kConfig
  // before any superstep runs.
  const auto two = routing::make_schedule(ScheduleKind::kRing, 2,
                                          all_hosts(2), identity_machines(2));
  auto cfg = sched_cfg(8, 4, ScheduleKind::kCustom);
  cfg.net.custom_schedule_json = two.to_json();
  em::EmEngine e(cfg);
  algo::SampleSortProgram<std::uint64_t> prog;
  const auto keys = random_keys(9, 600);
  try {
    e.run(prog, sort_inputs(8, keys));
    FAIL() << "wrong-shape custom schedule must not run";
  } catch (const IoError& err) {
    EXPECT_EQ(err.kind(), IoErrorKind::kConfig);
  }
}

TEST(ScheduleCustom, MalformedJsonRejectedAtRunStart) {
  auto cfg = sched_cfg(8, 4, ScheduleKind::kCustom);
  cfg.net.custom_schedule_json = "{\"p\": 4, \"steps\": oops";
  em::EmEngine e(cfg);
  algo::SampleSortProgram<std::uint64_t> prog;
  const auto keys = random_keys(10, 600);
  EXPECT_THROW(e.run(prog, sort_inputs(8, keys)), IoError);
}

TEST(ScheduleCustom, MembershipChangeFallsBackToDirect) {
  // The documented degradation contract: a user schedule covers one exact
  // membership; when fail-over shrinks the live set mid-run the engine
  // falls back to direct exchange for the degraded epochs (and the run
  // still completes bit-identically), rather than guessing how to shrink a
  // hand-built route.
  const auto keys = random_keys(5353, 2000);
  algo::SampleSortProgram<std::uint64_t> prog;
  em::EmEngine ref(sched_cfg(8, 4, ScheduleKind::kDirect));
  const auto expected = ref.run(prog, sort_inputs(8, keys));

  const auto ring = routing::make_schedule(ScheduleKind::kRing, 4,
                                           all_hosts(4), identity_machines(4));
  auto cfg = sched_cfg(8, 4, ScheduleKind::kCustom);
  cfg.net.custom_schedule_json = ring.to_json();
  cfg.net.failover = true;
  cfg.net.fault.fail_stops = {{3, 2}};
  em::EmEngine e(cfg);
  const auto got = e.run(prog, sort_inputs(8, keys));
  EXPECT_TRUE(expected == got);
  ASSERT_GT(e.last_result().failovers, 0u);
  // Degraded membership: the custom schedule is out of service and the
  // survivors exchange along the one-step direct schedule.
  ASSERT_NE(e.schedule(), nullptr);
  EXPECT_EQ(e.schedule()->kind, ScheduleKind::kDirect);
  EXPECT_EQ(e.schedule()->steps.size(), 1u);
}

TEST(ScheduleCustom, RejoinRestoresTheCustomSchedule) {
  const auto keys = random_keys(6464, 2000);
  algo::SampleSortProgram<std::uint64_t> prog;
  em::EmEngine ref(sched_cfg(8, 4, ScheduleKind::kDirect));
  const auto expected = ref.run(prog, sort_inputs(8, keys));

  const auto ring = routing::make_schedule(ScheduleKind::kRing, 4,
                                           all_hosts(4), identity_machines(4));
  auto cfg = sched_cfg(8, 4, ScheduleKind::kCustom);
  cfg.net.custom_schedule_json = ring.to_json();
  cfg.net.failover = true;
  cfg.net.fault.fail_stops = {{2, 2}};
  cfg.net.fault.rejoins = {{2, 4}};
  em::EmEngine e(cfg);
  EXPECT_TRUE(expected == e.run(prog, sort_inputs(8, keys)));
  if (e.last_result().rejoins > 0) {
    // Full membership again: the user schedule covers the machine and is
    // re-engaged for the restored epochs.
    ASSERT_NE(e.schedule(), nullptr);
    EXPECT_EQ(e.schedule()->hosts, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  }
}
