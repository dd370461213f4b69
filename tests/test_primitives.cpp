// Direct tests of the CGM communication primitives and the scan program's
// edge cases (they are otherwise exercised indirectly by every algorithm).
#include <gtest/gtest.h>

#include <numeric>

#include "algo/primitives.h"
#include "algo/scan.h"
#include "cgm/machine.h"
#include "cgm/proc_ctx.h"
#include "util/rng.h"

using namespace emcgm;

namespace {

/// One round of broadcast + all-gather: every processor sends its pid
/// vector to all, then checks it received exactly v vectors.
struct GossipState {
  std::uint32_t phase = 0;
  auto fields() { return std::tie(phase); }
};

class GossipProgram final : public cgm::ProgramT<GossipState> {
 public:
  std::string name() const override { return "gossip_probe"; }

  void round(cgm::ProcCtx& ctx, GossipState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    switch (st.phase) {
      case 0: {
        std::vector<std::uint64_t> mine{ctx.pid(), ctx.pid() * 10ull};
        prim::send_all(ctx, mine);
        break;
      }
      case 1: {
        auto by_src = prim::recv_by_src<std::uint64_t>(ctx);
        std::vector<std::uint64_t> flat;
        for (std::uint32_t s = 0; s < v; ++s) {
          EMCGM_CHECK(by_src[s].size() == 2);
          EMCGM_CHECK(by_src[s][0] == s && by_src[s][1] == s * 10ull);
          flat.push_back(by_src[s][0]);
        }
        ctx.set_output(flat, 0);
        break;
      }
      default:
        EMCGM_CHECK(false);
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const GossipState& st) const override {
    return st.phase >= 2;
  }
};

/// Rank-routing probe: items tagged with global ranks must land on their
/// chunk owners via send_by_rank.
class RankRouteProgram final : public cgm::ProgramT<GossipState> {
 public:
  explicit RankRouteProgram(std::uint64_t total) : total_(total) {}

  std::string name() const override { return "rank_route_probe"; }

  void round(cgm::ProcCtx& ctx, GossipState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    switch (st.phase) {
      case 0: {
        auto mine = ctx.input_items<std::uint64_t>(0);
        const std::uint64_t first =
            chunk_begin(total_, v, ctx.pid());
        prim::send_by_rank<std::uint64_t>(ctx, mine, first, total_);
        break;
      }
      case 1: {
        auto got = ctx.recv_concat<std::uint64_t>();
        // Items were their own ranks, so the owner receives exactly its
        // chunk's range, in order.
        const std::uint64_t base = chunk_begin(total_, v, ctx.pid());
        EMCGM_CHECK(got.size() == chunk_size(total_, v, ctx.pid()));
        for (std::size_t i = 0; i < got.size(); ++i) {
          EMCGM_CHECK(got[i] == base + i);
        }
        ctx.set_output(got, 0);
        break;
      }
      default:
        EMCGM_CHECK(false);
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const GossipState& st) const override {
    return st.phase >= 2;
  }

 private:
  std::uint64_t total_;
};

}  // namespace

TEST(Primitives, GossipOnBothEngines) {
  for (auto kind : {cgm::EngineKind::kNative, cgm::EngineKind::kEm}) {
    cgm::MachineConfig cfg;
    cfg.v = 5;
    cgm::Machine m(kind, cfg);
    GossipProgram prog;
    std::vector<cgm::PartitionSet> inputs;
    auto outs = m.run(prog, std::move(inputs));
    for (std::uint32_t j = 0; j < 5; ++j) {
      auto flat = bytes_to_vec<std::uint64_t>(outs.at(0).parts[j]);
      ASSERT_EQ(flat.size(), 5u);
    }
  }
}

TEST(Primitives, SendByRankReassemblesChunks) {
  cgm::MachineConfig cfg;
  cfg.v = 6;
  cgm::Machine m(cgm::EngineKind::kEm, cfg);
  const std::uint64_t n = 101;  // deliberately not divisible by v
  std::vector<std::uint64_t> ranks(n);
  std::iota(ranks.begin(), ranks.end(), 0);
  RankRouteProgram prog(n);
  auto dv = m.scatter<std::uint64_t>(ranks);
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(dv.set));
  auto outs = m.run(prog, std::move(inputs));
  auto back = m.gather(cgm::Machine::as_dist<std::uint64_t>(
      std::move(outs.at(0))));
  EXPECT_EQ(back, ranks);
}

TEST(Primitives, ExclusivePrefixHelper) {
  EXPECT_EQ(prim::exclusive_prefix({}), std::vector<std::uint64_t>{});
  EXPECT_EQ(prim::exclusive_prefix({5}), std::vector<std::uint64_t>{0});
  EXPECT_EQ(prim::exclusive_prefix({1, 2, 3}),
            (std::vector<std::uint64_t>{0, 1, 3}));
}

TEST(Primitives, ScanEdgeCases) {
  cgm::MachineConfig cfg;
  cfg.v = 4;
  cgm::Machine m(cgm::EngineKind::kEm, cfg);
  // Empty input.
  auto empty = m.gather(algo::prefix_scan(
      m, m.scatter<std::int64_t>(std::vector<std::int64_t>{}), true));
  EXPECT_TRUE(empty.empty());
  // Single element, fewer elements than processors.
  auto tiny = m.gather(algo::prefix_scan(
      m, m.scatter<std::int64_t>(std::vector<std::int64_t>{7, -2}), false));
  EXPECT_EQ(tiny, (std::vector<std::int64_t>{0, 7}));
  // All negative.
  std::vector<std::int64_t> neg(100, -3);
  auto got = m.gather(algo::prefix_scan(m, m.scatter<std::int64_t>(neg), true));
  for (std::size_t i = 0; i < neg.size(); ++i) {
    EXPECT_EQ(got[i], -3 * static_cast<std::int64_t>(i + 1));
  }
}

TEST(Primitives, SelfSendDelivered) {
  // A processor sending to itself must receive the message next round on
  // both engines (the EM engine routes it through the disk store).
  struct SelfState {
    std::uint32_t phase = 0;
    auto fields() { return std::tie(phase); }
  };
  class SelfProgram final : public cgm::ProgramT<SelfState> {
   public:
    std::string name() const override { return "self_send"; }
    void round(cgm::ProcCtx& ctx, SelfState& st) const override {
      if (st.phase == 0) {
        ctx.send_vec(ctx.pid(),
                     std::vector<std::uint64_t>{ctx.pid() + 1000ull});
      } else {
        auto got = ctx.recv_from<std::uint64_t>(ctx.pid());
        EMCGM_CHECK(got.size() == 1 && got[0] == ctx.pid() + 1000ull);
        ctx.set_output(got, 0);
      }
      ++st.phase;
    }
    bool done(const cgm::ProcCtx&, const SelfState& st) const override {
      return st.phase >= 2;
    }
  };
  for (auto kind : {cgm::EngineKind::kNative, cgm::EngineKind::kEm}) {
    cgm::MachineConfig cfg;
    cfg.v = 3;
    cfg.balanced_routing = (kind == cgm::EngineKind::kEm);
    cgm::Machine m(kind, cfg);
    SelfProgram prog;
    std::vector<cgm::PartitionSet> inputs;
    auto outs = m.run(prog, std::move(inputs));
    EXPECT_EQ(outs.at(0).parts.size(), 3u);
  }
}

TEST(Primitives, MergeRunsMatchesStableSortOfConcat) {
  // Items compare by key alone, and the keys take few values, so equal keys
  // arrive from several sources: the merge must keep them in source order.
  struct Item {
    std::uint32_t key, src, pos;
  };
  const auto by_key = [](const Item& a, const Item& b) { return a.key < b.key; };
  Rng rng(11);
  for (std::uint32_t runs : {0u, 1u, 3u, 5u, 7u}) {
    std::vector<cgm::Message> inbox;
    for (std::uint32_t s = 0; s < runs; ++s) {
      // Odd sources only, so some sources send nothing, and the inbox is
      // filled in reverse: begin_superstep puts it in source order.
      const std::uint32_t src = 2 * s + 1;
      std::vector<Item> run(1 + rng.next_below(40));
      for (std::uint32_t i = 0; i < run.size(); ++i) {
        run[i] = Item{static_cast<std::uint32_t>(rng.next_below(6)), src, i};
      }
      std::stable_sort(run.begin(), run.end(), by_key);
      inbox.insert(inbox.begin(), cgm::Message{src, 0, vec_to_bytes(run)});
    }
    cgm::ProcCtx ctx(0, 16, 1);
    ctx.begin_superstep(1, std::move(inbox));
    auto want = ctx.recv_concat<Item>();
    std::stable_sort(want.begin(), want.end(), by_key);
    const auto got = prim::merge_runs<Item>(ctx, by_key);
    EXPECT_EQ(vec_to_bytes(got), vec_to_bytes(want)) << runs << " runs";
  }
}
