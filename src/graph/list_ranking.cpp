#include "graph/list_ranking.h"

#include <algorithm>
#include <unordered_map>

#include "algo/primitives.h"
#include "util/math.h"

namespace emcgm::graph {

namespace {

/// All traffic of this program uses one record type, discriminated by kind,
/// so that records bound for the same destination can share a message.
struct LrMsg {
  std::uint32_t kind;
  std::uint32_t pad = 0;
  std::uint64_t a = 0, b = 0, c = 0;
};

enum LrKind : std::uint32_t {
  kPredSet = 0,   // a = node, b = pred
  kSuccSet = 1,   // a = node, b = new succ, c = weight to add
  kCount = 2,     // a = sender's active count
  kBaseNode = 3,  // a = id, b = succ, c = weight
  kRankSet = 4,   // a = id, b = rank
  kQuery = 5,     // a = asker, b = target
  kReply = 6,     // a = asker, b = target's rank
};

enum Mode : std::uint32_t {
  kInit = 0,
  kContract = 1,
  kBaseRank = 2,   // processor 0 ranks the remnant
  kReconQ = 3,     // send rank queries for one removal round
  kReconA = 4,     // answer rank queries
  kFinish = 5,
  kDone = 6,
};

struct LrState {
  std::uint32_t mode = kInit;
  std::uint32_t contract_round = 0;  // next contraction round index
  std::uint32_t recon_round = 0;     // removal round being reconstructed
  std::uint64_t active_total = 0;

  // Parallel arrays over local ids [base, base+cnt).
  std::vector<std::uint64_t> succ, pred, w;
  std::vector<std::uint8_t> active, ranked;
  std::vector<std::uint32_t> removed_round;
  std::vector<std::uint64_t> rem_succ, rem_w, rank;

  auto fields() {
    return std::tie(mode, contract_round, recon_round, active_total, succ, pred,
                    w, active, ranked, removed_round, rem_succ, rem_w, rank);
  }
};

class ListRankProgram final : public cgm::ProgramT<LrState> {
 public:
  ListRankProgram(std::uint64_t total, std::uint64_t seed_salt,
                  bool weighted)
      : total_(total), salt_(seed_salt), weighted_(weighted) {}

  std::string name() const override { return "list_ranking"; }

  void round(cgm::ProcCtx& ctx, LrState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    const std::uint64_t base = chunk_begin(total_, v, ctx.pid());
    const std::uint64_t cnt = chunk_size(total_, v, ctx.pid());

    // Outboxes, one per destination, flushed at the end of the round.
    std::vector<std::vector<LrMsg>> out(v);
    auto owner = [&](std::uint64_t id) {
      return static_cast<std::uint32_t>(chunk_owner(total_, v, id));
    };
    auto local = [&](std::uint64_t id) {
      EMCGM_ASSERT(id >= base && id - base < cnt);
      return static_cast<std::size_t>(id - base);
    };

    // Apply every incoming record first; collect queries for this round.
    std::vector<LrMsg> queries, base_nodes;
    std::uint64_t counted = 0;
    bool have_count = false;
    for (const auto& r : ctx.recv_concat<LrMsg>()) {
      switch (r.kind) {
        case kPredSet:
          st.pred[local(r.a)] = r.b;
          break;
        case kSuccSet: {
          const auto i = local(r.a);
          st.succ[i] = r.b;
          st.w[i] += r.c;
          break;
        }
        case kCount:
          counted += r.a;
          have_count = true;
          break;
        case kBaseNode:
          base_nodes.push_back(r);
          break;
        case kRankSet: {
          const auto i = local(r.a);
          st.rank[i] = r.b;
          st.ranked[i] = 1;
          break;
        }
        case kQuery:
          queries.push_back(r);
          break;
        case kReply: {
          const auto i = local(r.a);
          st.rank[i] = r.b + st.rem_w[i];
          st.ranked[i] = 1;
          break;
        }
        default:
          EMCGM_CHECK_MSG(false, "unknown list-ranking record");
      }
    }
    if (have_count) st.active_total = counted;

    switch (st.mode) {
      case kInit: {
        auto nodes = ctx.input_items<ListNode>(0);
        EMCGM_CHECK_MSG(nodes.size() == cnt,
                        "list_ranking input must be id-dense and id-ordered");
        st.succ.assign(cnt, kNil);
        st.pred.assign(cnt, kNil);
        st.w.assign(cnt, 0);
        st.active.assign(cnt, 1);
        st.ranked.assign(cnt, 0);
        st.removed_round.assign(cnt, ~0u);
        st.rem_succ.assign(cnt, kNil);
        st.rem_w.assign(cnt, 0);
        st.rank.assign(cnt, 0);
        std::vector<std::uint64_t> weights;
        if (weighted_) {
          weights = ctx.input_items<std::uint64_t>(1);
          EMCGM_CHECK_MSG(weights.size() == cnt,
                          "weight partition size mismatch");
        }
        for (std::size_t i = 0; i < nodes.size(); ++i) {
          EMCGM_CHECK(nodes[i].id == base + i);
          st.succ[i] = nodes[i].next;
          if (nodes[i].next != kNil) {
            st.w[i] = weighted_ ? weights[i] : 1;
            out[owner(nodes[i].next)].push_back(
                LrMsg{kPredSet, 0, nodes[i].next, base + i, 0});
          }
        }
        const std::uint64_t my_active = cnt;
        for (std::uint32_t s = 0; s < v; ++s) {
          out[s].push_back(LrMsg{kCount, 0, my_active, 0, 0});
        }
        st.mode = kContract;
        break;
      }

      case kContract: {
        const std::uint64_t threshold =
            std::max<std::uint64_t>(64, ceil_div(total_, v));
        if (st.active_total <= threshold) {
          // Ship the remnant to processor 0 for sequential ranking.
          for (std::size_t i = 0; i < cnt; ++i) {
            if (!st.active[i]) continue;
            out[0].push_back(
                LrMsg{kBaseNode, 0, base + i, st.succ[i], st.w[i]});
          }
          st.mode = kBaseRank;
          break;
        }
        // Ruling-set removal with deterministic per-(round, id) coins.
        const std::uint32_t r = st.contract_round;
        auto coin = [&](std::uint64_t id) {
          return (mix64(salt_ ^ (std::uint64_t{r} << 40) ^ id) & 1) != 0;
        };
        std::uint64_t my_active = 0;
        for (std::size_t i = 0; i < cnt; ++i) {
          if (!st.active[i]) continue;
          const std::uint64_t id = base + i;
          if (st.succ[i] != kNil && coin(id) && !coin(st.succ[i])) {
            st.active[i] = 0;
            st.removed_round[i] = r;
            st.rem_succ[i] = st.succ[i];
            st.rem_w[i] = st.w[i];
            if (st.pred[i] != kNil) {
              out[owner(st.pred[i])].push_back(
                  LrMsg{kSuccSet, 0, st.pred[i], st.succ[i], st.w[i]});
            }
            out[owner(st.succ[i])].push_back(
                LrMsg{kPredSet, 0, st.succ[i], st.pred[i], 0});
          } else {
            ++my_active;
          }
        }
        for (std::uint32_t s = 0; s < v; ++s) {
          out[s].push_back(LrMsg{kCount, 0, my_active, 0, 0});
        }
        st.contract_round += 1;
        break;
      }

      case kBaseRank: {
        if (ctx.pid() == 0 && !base_nodes.empty()) {
          // Invert the remnant's succ map and walk back from each tail.
          std::unordered_map<std::uint64_t, const LrMsg*> by_id;
          std::unordered_map<std::uint64_t, std::uint64_t> pred_of;
          for (const auto& n : base_nodes) {
            by_id.emplace(n.a, &n);
            if (n.b != kNil) pred_of[n.b] = n.a;
          }
          for (const auto& n : base_nodes) {
            if (n.b != kNil) continue;  // not a tail
            std::uint64_t cur = n.a, r = 0;
            for (;;) {
              out[owner(cur)].push_back(LrMsg{kRankSet, 0, cur, r, 0});
              auto it = pred_of.find(cur);
              if (it == pred_of.end()) break;
              const LrMsg* pn = by_id.at(it->second);
              r += pn->c;  // weight of pred -> cur
              cur = it->second;
            }
          }
        }
        // Reconstruction runs rounds contract_round-1 .. 0.
        if (st.contract_round == 0) {
          st.mode = kFinish;
        } else {
          st.recon_round = st.contract_round - 1;
          st.mode = kReconQ;
        }
        break;
      }

      case kReconQ: {
        for (std::size_t i = 0; i < cnt; ++i) {
          if (st.removed_round[i] != st.recon_round) continue;
          out[owner(st.rem_succ[i])].push_back(
              LrMsg{kQuery, 0, base + i, st.rem_succ[i], 0});
        }
        st.mode = kReconA;
        break;
      }

      case kReconA: {
        for (const auto& q : queries) {
          const auto i = local(q.b);
          EMCGM_CHECK_MSG(st.ranked[i],
                          "reconstruction target not yet ranked");
          out[owner(q.a)].push_back(LrMsg{kReply, 0, q.a, st.rank[i], 0});
        }
        if (st.recon_round == 0) {
          st.mode = kFinish;
        } else {
          st.recon_round -= 1;
          st.mode = kReconQ;
        }
        break;
      }

      case kFinish: {
        std::vector<ListRank> res(cnt);
        for (std::size_t i = 0; i < cnt; ++i) {
          EMCGM_CHECK_MSG(st.ranked[i], "node " << base + i << " unranked");
          res[i] = ListRank{base + i, st.rank[i]};
        }
        ctx.set_output(res, 0);
        st.mode = kDone;
        break;
      }

      default:
        EMCGM_CHECK_MSG(false, "list_ranking ran past completion");
    }

    for (std::uint32_t s = 0; s < v; ++s) {
      if (!out[s].empty()) ctx.send_vec(s, out[s]);
    }
  }

  bool done(const cgm::ProcCtx&, const LrState& st) const override {
    return st.mode == kDone;
  }

 private:
  std::uint64_t total_;
  std::uint64_t salt_;
  bool weighted_;
};

}  // namespace

cgm::DistVec<ListRank> list_ranking(cgm::Machine& m,
                                    cgm::DistVec<ListNode> nodes,
                                    std::uint64_t total) {
  ListRankProgram prog(total, m.config().seed ^ 0x715EC0DE, false);
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(nodes.set));
  auto outs = m.run(prog, std::move(inputs));
  return cgm::Machine::as_dist<ListRank>(std::move(outs.at(0)));
}

cgm::DistVec<ListRank> list_ranking_weighted(
    cgm::Machine& m, cgm::DistVec<ListNode> nodes,
    cgm::DistVec<std::uint64_t> weights, std::uint64_t total) {
  ListRankProgram prog(total, m.config().seed ^ 0x715EC0DE, true);
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(nodes.set));
  inputs.push_back(std::move(weights.set));
  auto outs = m.run(prog, std::move(inputs));
  return cgm::Machine::as_dist<ListRank>(std::move(outs.at(0)));
}

std::vector<ListRank> list_ranking(cgm::Machine& m,
                                   std::vector<ListNode> nodes) {
  std::sort(nodes.begin(), nodes.end(),
            [](const ListNode& a, const ListNode& b) { return a.id < b.id; });
  const std::uint64_t total = nodes.size();
  auto dv = m.scatter<ListNode>(nodes);
  return m.gather(list_ranking(m, std::move(dv), total));
}

std::unique_ptr<cgm::Program> make_list_rank_program(std::uint64_t total,
                                                     std::uint64_t seed,
                                                     bool weighted) {
  return std::make_unique<ListRankProgram>(total, seed ^ 0x715EC0DE,
                                           weighted);
}

std::vector<ListRank> list_ranking_seq(std::vector<ListNode> nodes) {
  std::sort(nodes.begin(), nodes.end(),
            [](const ListNode& a, const ListNode& b) { return a.id < b.id; });
  std::unordered_map<std::uint64_t, std::uint64_t> pred_of;
  for (const auto& n : nodes) {
    if (n.next != kNil) pred_of[n.next] = n.id;
  }
  std::vector<ListRank> res(nodes.size());
  for (const auto& n : nodes) {
    if (n.next != kNil) continue;  // not a tail
    std::uint64_t cur = n.id, r = 0;
    for (;;) {
      res[static_cast<std::size_t>(cur)] = ListRank{cur, r};
      auto it = pred_of.find(cur);
      if (it == pred_of.end()) break;
      cur = it->second;
      ++r;
    }
  }
  return res;
}

}  // namespace emcgm::graph
