#include "graph/lca.h"

#include <algorithm>

#include "algo/primitives.h"
#include "util/math.h"

namespace emcgm::graph {

namespace {

struct LMsg {
  std::uint32_t kind;
  std::uint32_t pad = 0;
  std::uint64_t a = 0, b = 0, c = 0, d = 0;
};

enum LKind : std::uint32_t {
  kDepthQ = 0,  // a = vertex, b = local tour index at the asker
  kDepthA = 1,  // a = local tour index, b = depth
  kFposQ = 2,   // a = vertex, b = query local idx, c = endpoint (0/1)
  kFposA = 3,   // a = query local idx, b = endpoint, c = first_pos
  kBlockMin = 4,  // a = sender chunk, b = min depth, c = argmin vertex
  kRangeQ = 5,  // a = lo, b = hi (inclusive, within one chunk),
                // c = query local idx
  kRangeA = 6,  // a = query local idx, b = min depth, c = argmin vertex
};

constexpr std::uint64_t kInfDepth = ~std::uint64_t{0};

struct LcaState {
  std::uint32_t phase = 0;
  std::vector<EulerResult> verts;       // vertex layout
  std::vector<std::uint64_t> tour;      // position layout
  std::vector<std::uint64_t> tdepth;    // depth of each tour entry
  std::vector<LcaQuery> queries;        // this processor's queries
  std::vector<std::uint64_t> fu, fv;    // first positions per query
  std::vector<std::uint64_t> blk_d, blk_v;  // per-chunk minima
  std::vector<std::uint64_t> ans_d, ans_v;  // running minima per query

  auto fields() {
    return std::tie(phase, verts, tour, tdepth, queries, fu, fv, blk_d, blk_v,
                    ans_d, ans_v);
  }
};

class LcaProgram final : public cgm::ProgramT<LcaState> {
 public:
  LcaProgram(std::uint64_t n, std::uint64_t t) : n_(n), t_(t) {}

  std::string name() const override { return "lca_batch"; }

  void round(cgm::ProcCtx& ctx, LcaState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    auto vowner = [&](std::uint64_t x) {
      return static_cast<std::uint32_t>(chunk_owner(n_, v, x));
    };
    auto powner = [&](std::uint64_t pos) {
      return static_cast<std::uint32_t>(chunk_owner(t_, v, pos));
    };
    const std::uint64_t vbase = chunk_begin(n_, v, ctx.pid());
    const std::uint64_t pbase = chunk_begin(t_, v, ctx.pid());
    std::vector<std::vector<LMsg>> out(v);

    switch (st.phase) {
      case 0: {  // absorb; ask for tour-entry depths and query endpoints
        st.verts = ctx.input_items<EulerResult>(0);
        st.tour = ctx.input_items<std::uint64_t>(1);
        st.queries = ctx.input_items<LcaQuery>(2);
        for (std::size_t i = 0; i < st.tour.size(); ++i) {
          out[vowner(st.tour[i])].push_back(LMsg{kDepthQ, 0, st.tour[i], i});
        }
        for (std::size_t i = 0; i < st.queries.size(); ++i) {
          EMCGM_CHECK(st.queries[i].u < n_ && st.queries[i].v < n_);
          out[vowner(st.queries[i].u)].push_back(
              LMsg{kFposQ, 0, st.queries[i].u, i, 0});
          out[vowner(st.queries[i].v)].push_back(
              LMsg{kFposQ, 0, st.queries[i].v, i, 1});
        }
        break;
      }
      case 1: {  // vertex owners answer depth and first-position lookups
        const auto by_src = prim::recv_by_src<LMsg>(ctx);
        for (std::uint32_t src = 0; src < v; ++src) {
          for (const auto& r : by_src[src]) {
            const auto& ev =
                st.verts[static_cast<std::size_t>(r.a - vbase)];
            if (r.kind == kDepthQ) {
              out[src].push_back(LMsg{kDepthA, 0, r.b, ev.depth});
            } else {
              EMCGM_ASSERT(r.kind == kFposQ);
              // Root has no down edge; encode with kInfDepth sentinel and
              // let the asker special-case it.
              const std::uint64_t f =
                  ev.parent == kNil ? kInfDepth : ev.first_pos;
              out[src].push_back(LMsg{kFposA, 0, r.b, r.c, f});
            }
          }
        }
        break;
      }
      case 2: {  // gossip per-chunk minima; fire range requests
        st.tdepth.assign(st.tour.size(), 0);
        st.fu.assign(st.queries.size(), 0);
        st.fv.assign(st.queries.size(), 0);
        for (const auto& r : ctx.recv_concat<LMsg>()) {
          if (r.kind == kDepthA) {
            st.tdepth[static_cast<std::size_t>(r.a)] = r.b;
          } else {
            EMCGM_ASSERT(r.kind == kFposA);
            (r.b == 0 ? st.fu : st.fv)[static_cast<std::size_t>(r.a)] =
                r.c;
          }
        }
        // Per-chunk minimum of (depth, vertex).
        std::uint64_t md = kInfDepth, mv = 0;
        for (std::size_t i = 0; i < st.tour.size(); ++i) {
          if (st.tdepth[i] < md) {
            md = st.tdepth[i];
            mv = st.tour[i];
          }
        }
        for (std::uint32_t s = 0; s < v; ++s) {
          out[s].push_back(LMsg{kBlockMin, 0, ctx.pid(), md, mv});
        }
        // Boundary range requests (middle chunks resolve from the gossip
        // next phase).
        st.ans_d.assign(st.queries.size(), kInfDepth);
        st.ans_v.assign(st.queries.size(), 0);
        for (std::size_t i = 0; i < st.queries.size(); ++i) {
          if (trivial(st, i)) continue;
          const std::uint64_t lo = std::min(st.fu[i], st.fv[i]);
          const std::uint64_t hi = std::max(st.fu[i], st.fv[i]);
          const std::uint32_t clo = powner(lo), chi = powner(hi);
          if (clo == chi) {
            out[clo].push_back(LMsg{kRangeQ, 0, lo, hi, i});
          } else {
            const std::uint64_t lo_end =
                chunk_begin(t_, v, clo) + chunk_size(t_, v, clo) - 1;
            out[clo].push_back(LMsg{kRangeQ, 0, lo, lo_end, i});
            out[chi].push_back(
                LMsg{kRangeQ, 0, chunk_begin(t_, v, chi), hi, i});
          }
        }
        break;
      }
      case 3: {  // answer boundary minima; collect the block table
        st.blk_d.assign(v, kInfDepth);
        st.blk_v.assign(v, 0);
        const auto by_src = prim::recv_by_src<LMsg>(ctx);
        for (std::uint32_t src = 0; src < v; ++src) {
          for (const auto& r : by_src[src]) {
            if (r.kind == kBlockMin) {
              st.blk_d[static_cast<std::size_t>(r.a)] = r.b;
              st.blk_v[static_cast<std::size_t>(r.a)] = r.c;
              continue;
            }
            EMCGM_ASSERT(r.kind == kRangeQ);
            std::uint64_t md = kInfDepth, mv = 0;
            for (std::uint64_t p = r.a; p <= r.b; ++p) {
              const auto i = static_cast<std::size_t>(p - pbase);
              if (st.tdepth[i] < md) {
                md = st.tdepth[i];
                mv = st.tour[i];
              }
            }
            out[src].push_back(LMsg{kRangeA, 0, r.c, md, mv});
          }
        }
        break;
      }
      case 4: {  // combine boundary + middle-block minima
        for (const auto& r : ctx.recv_concat<LMsg>()) {
          EMCGM_ASSERT(r.kind == kRangeA);
          const auto i = static_cast<std::size_t>(r.a);
          if (r.b < st.ans_d[i]) {
            st.ans_d[i] = r.b;
            st.ans_v[i] = r.c;
          }
        }
        std::vector<LcaResult> res(st.queries.size());
        for (std::size_t i = 0; i < st.queries.size(); ++i) {
          if (trivial(st, i)) {
            res[i] = LcaResult{st.queries[i].qid, trivial_answer(st, i)};
            continue;
          }
          const std::uint64_t lo = std::min(st.fu[i], st.fv[i]);
          const std::uint64_t hi = std::max(st.fu[i], st.fv[i]);
          const std::uint32_t clo = powner(lo), chi = powner(hi);
          for (std::uint32_t c = clo + 1; c < chi; ++c) {
            if (st.blk_d[c] < st.ans_d[i]) {
              st.ans_d[i] = st.blk_d[c];
              st.ans_v[i] = st.blk_v[c];
            }
          }
          EMCGM_CHECK(st.ans_d[i] != kInfDepth);
          res[i] = LcaResult{st.queries[i].qid, st.ans_v[i]};
        }
        ctx.set_output(res, 0);
        break;
      }
      default:
        EMCGM_CHECK_MSG(false, "lca_batch ran past its final round");
    }

    for (std::uint32_t s = 0; s < v; ++s) {
      if (!out[s].empty()) ctx.send_vec(s, out[s]);
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const LcaState& st) const override {
    return st.phase >= 5;
  }

 private:
  /// Queries answered without a range lookup: u == v, or either endpoint is
  /// the root (first_pos sentinel).
  static bool trivial(const LcaState& st, std::size_t i) {
    return st.queries[i].u == st.queries[i].v ||
           st.fu[i] == kInfDepth || st.fv[i] == kInfDepth;
  }
  static std::uint64_t trivial_answer(const LcaState& st, std::size_t i) {
    if (st.queries[i].u == st.queries[i].v) return st.queries[i].u;
    // One endpoint is the root: the LCA is the root itself.
    return st.fu[i] == kInfDepth ? st.queries[i].u : st.queries[i].v;
  }

  std::uint64_t n_;
  std::uint64_t t_;
};

}  // namespace

std::vector<LcaResult> lca_batch(cgm::Machine& m, const EulerTourData& tour,
                                 const std::vector<LcaQuery>& queries) {
  LcaProgram prog(tour.n_vertices, tour.tour.total);
  auto dq = m.scatter<LcaQuery>(queries);
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(tour.verts.set);
  inputs.push_back(tour.tour.set);
  inputs.push_back(std::move(dq.set));
  auto outs = m.run(prog, std::move(inputs));
  auto res = m.gather(cgm::Machine::as_dist<LcaResult>(std::move(outs.at(0))));
  std::sort(res.begin(), res.end(),
            [](const LcaResult& a, const LcaResult& b) {
              return a.qid < b.qid;
            });
  return res;
}

std::vector<LcaResult> lca_batch(cgm::Machine& m,
                                 const std::vector<Edge>& tree_edges,
                                 std::uint64_t n_vertices,
                                 const std::vector<LcaQuery>& queries) {
  EMCGM_CHECK(n_vertices >= 2);
  auto tour = euler_tour_full(m, tree_edges, n_vertices);
  return lca_batch(m, tour, queries);
}

std::vector<LcaResult> lca_seq(const std::vector<Edge>& tree_edges,
                               std::uint64_t n_vertices,
                               const std::vector<LcaQuery>& queries) {
  auto info = euler_tour_seq(tree_edges, n_vertices);
  std::vector<LcaResult> res;
  res.reserve(queries.size());
  for (const auto& q : queries) {
    std::uint64_t a = q.u, b = q.v;
    while (a != b) {
      if (info[a].depth >= info[b].depth) {
        a = info[a].parent;
      } else {
        b = info[b].parent;
      }
    }
    res.push_back(LcaResult{q.qid, a});
  }
  std::sort(res.begin(), res.end(),
            [](const LcaResult& x, const LcaResult& y) {
              return x.qid < y.qid;
            });
  return res;
}

}  // namespace emcgm::graph
