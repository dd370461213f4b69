#include "graph/euler_tour.h"

#include <algorithm>
#include <map>

#include "algo/permute.h"
#include "algo/scan.h"
#include "algo/sort.h"
#include "graph/list_ranking.h"

namespace emcgm::graph {

namespace {

constexpr std::uint64_t kRoot = 0;

/// Unified message record (kind-discriminated so mixed traffic can share
/// per-destination messages).
struct EMsg {
  std::uint32_t kind;
  std::uint32_t pad = 0;
  std::uint64_t a = 0, b = 0, c = 0, d = 0;
};

enum EKind : std::uint32_t {
  kAdj = 0,      // a = src, b = dst, c = edge id
  kQuery = 1,    // a = u, b = v, c = edge id of (u, v)
  kReply = 2,    // a = edge id, b = successor edge id (kNil = tour tail)
  kRptIn = 3,    // a = dst, b = src, c = pos, d = edge id
  kRptOut = 4,   // a = src, b = dst, c = pos, d = edge id
  kDown = 5,     // a = edge id, b = is_down
  kPosQ = 6,     // a = pos, b = vertex
  kPosA = 7,     // a = vertex, b = depth prefix, c = preorder prefix
};

/// Per-vertex tour summary computed by the report stage.
struct PVert {
  std::uint64_t id = 0;
  std::uint64_t parent = kNil;
  std::uint64_t first_pos = 0;  ///< position of the down edge into id
  std::uint64_t up_pos = 0;     ///< position of the up edge out of id
  std::uint64_t subtree = 1;
};

// ---------------------------------------------------------------- stage 2 --

struct SuccState {
  std::uint32_t phase = 0;
  std::vector<Edge> edges;  // this chunk of the sorted directed edges
  std::vector<std::uint64_t> succ;

  auto fields() { return std::tie(phase, edges, succ); }
};

class EulerSuccProgram final : public cgm::ProgramT<SuccState> {
 public:
  EulerSuccProgram(std::uint64_t n_vertices, std::uint64_t n_dir_edges)
      : n_(n_vertices), t_(n_dir_edges) {}

  std::string name() const override { return "euler_successor"; }

  void round(cgm::ProcCtx& ctx, SuccState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    auto vowner = [&](std::uint64_t x) {
      return static_cast<std::uint32_t>(chunk_owner(n_, v, x));
    };
    auto eowner = [&](std::uint64_t e) {
      return static_cast<std::uint32_t>(chunk_owner(t_, v, e));
    };
    switch (st.phase) {
      case 0: {  // adjacency records to src owners; successor queries to
                 // dst owners
        st.edges = ctx.input_items<Edge>(0);
        const std::uint64_t base = chunk_begin(t_, v, ctx.pid());
        std::vector<std::vector<EMsg>> out(v);
        for (std::size_t i = 0; i < st.edges.size(); ++i) {
          const std::uint64_t eid = base + i;
          const Edge& e = st.edges[i];
          out[vowner(e.u)].push_back(EMsg{kAdj, 0, e.u, e.v, eid, 0});
          out[vowner(e.v)].push_back(EMsg{kQuery, 0, e.u, e.v, eid, 0});
        }
        for (std::uint32_t s = 0; s < v; ++s) ctx.send_vec(s, out[s]);
        break;
      }
      case 1: {  // resolve successors from the local adjacency lists
        // adjacency[x] = sorted (neighbor, edge id of (x, neighbor)).
        std::map<std::uint64_t,
                 std::vector<std::pair<std::uint64_t, std::uint64_t>>>
            adj;
        std::vector<EMsg> queries;
        for (const auto& r : ctx.recv_concat<EMsg>()) {
          if (r.kind == kAdj) {
            adj[r.a].emplace_back(r.b, r.c);
          } else {
            EMCGM_ASSERT(r.kind == kQuery);
            queries.push_back(r);
          }
        }
        for (auto& [x, nb] : adj) std::sort(nb.begin(), nb.end());
        std::vector<std::vector<EMsg>> out(v);
        for (const auto& q : queries) {
          // Successor of (u, v): the edge (v, w) where w follows u in v's
          // cyclic neighbor order; the wrap at the root ends the tour.
          const auto& nb = adj.at(q.b);
          const auto it = std::lower_bound(
              nb.begin(), nb.end(),
              std::make_pair(q.a, std::uint64_t{0}));
          EMCGM_CHECK(it != nb.end() && it->first == q.a);
          const std::size_t pos = static_cast<std::size_t>(it - nb.begin());
          std::uint64_t succ;
          if (q.b == kRoot && pos + 1 == nb.size()) {
            succ = kNil;  // cut the tour into a linear list
          } else {
            succ = nb[(pos + 1) % nb.size()].second;
          }
          out[eowner(q.c)].push_back(EMsg{kReply, 0, q.c, succ, 0, 0});
        }
        for (std::uint32_t s = 0; s < v; ++s) ctx.send_vec(s, out[s]);
        break;
      }
      case 2: {  // assemble the tour's linked-list nodes
        const std::uint64_t base = chunk_begin(t_, v, ctx.pid());
        std::vector<ListNode> nodes(st.edges.size());
        std::vector<char> seen(st.edges.size(), 0);
        for (const auto& r : ctx.recv_concat<EMsg>()) {
          EMCGM_ASSERT(r.kind == kReply);
          const auto i = static_cast<std::size_t>(r.a - base);
          nodes[i] = ListNode{r.a, r.b};
          seen[i] = 1;
        }
        for (char s : seen) EMCGM_CHECK(s);
        ctx.set_output(nodes, 0);
        break;
      }
      default:
        EMCGM_CHECK_MSG(false, "euler_successor ran past its final round");
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const SuccState& st) const override {
    return st.phase >= 3;
  }

 private:
  std::uint64_t n_;
  std::uint64_t t_;
};

// ---------------------------------------------------------------- stage 4 --

struct ReportState {
  std::uint32_t phase = 0;
  std::vector<Edge> edges;
  std::vector<std::uint64_t> pos;

  auto fields() { return std::tie(phase, edges, pos); }
};

class EulerReportProgram final : public cgm::ProgramT<ReportState> {
 public:
  EulerReportProgram(std::uint64_t n_vertices, std::uint64_t n_dir_edges)
      : n_(n_vertices), t_(n_dir_edges) {}

  std::string name() const override { return "euler_report"; }

  void round(cgm::ProcCtx& ctx, ReportState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    auto vowner = [&](std::uint64_t x) {
      return static_cast<std::uint32_t>(chunk_owner(n_, v, x));
    };
    auto eowner = [&](std::uint64_t e) {
      return static_cast<std::uint32_t>(chunk_owner(t_, v, e));
    };
    switch (st.phase) {
      case 0: {  // report every edge to both endpoint owners
        st.edges = ctx.input_items<Edge>(0);
        auto ranks = ctx.input_items<ListRank>(1);
        EMCGM_CHECK(ranks.size() == st.edges.size());
        st.pos.resize(st.edges.size());
        const std::uint64_t base = chunk_begin(t_, v, ctx.pid());
        std::vector<std::vector<EMsg>> out(v);
        for (std::size_t i = 0; i < st.edges.size(); ++i) {
          EMCGM_CHECK(ranks[i].id == base + i);
          st.pos[i] = t_ - 1 - ranks[i].rank;
          const Edge& e = st.edges[i];
          out[vowner(e.v)].push_back(
              EMsg{kRptIn, 0, e.v, e.u, st.pos[i], base + i});
          out[vowner(e.u)].push_back(
              EMsg{kRptOut, 0, e.u, e.v, st.pos[i], base + i});
        }
        for (std::uint32_t s = 0; s < v; ++s) ctx.send_vec(s, out[s]);
        break;
      }
      case 1: {  // vertex summaries; down/up verdict back to edge owners
        struct In {
          std::uint64_t src, pos, eid;
        };
        struct Out {
          std::uint64_t dst, pos;
        };
        std::map<std::uint64_t, std::vector<In>> incoming;
        std::map<std::uint64_t, std::vector<Out>> outgoing;
        for (const auto& r : ctx.recv_concat<EMsg>()) {
          if (r.kind == kRptIn) {
            incoming[r.a].push_back(In{r.b, r.c, r.d});
          } else {
            EMCGM_ASSERT(r.kind == kRptOut);
            outgoing[r.a].push_back(Out{r.b, r.c});
          }
        }
        const std::uint64_t vbase = chunk_begin(n_, v, ctx.pid());
        const std::uint64_t vcnt = chunk_size(n_, v, ctx.pid());
        std::vector<PVert> verts;
        std::vector<std::vector<EMsg>> out(v);
        for (std::uint64_t x = vbase; x < vbase + vcnt; ++x) {
          PVert pv;
          pv.id = x;
          if (x == kRoot) {
            pv.parent = kNil;
            pv.first_pos = 0;
            pv.up_pos = t_ ? t_ - 1 : 0;
            pv.subtree = n_;
            // Root's incoming edges are all "up" edges.
            for (const auto& in : incoming[x]) {
              out[eowner(in.eid)].push_back(EMsg{kDown, 0, in.eid, 0, 0, 0});
            }
          } else {
            const auto& ins = incoming.at(x);
            const In* first = &ins[0];
            for (const auto& in : ins) {
              if (in.pos < first->pos) first = &in;
            }
            pv.parent = first->src;
            pv.first_pos = first->pos;
            for (const auto& in : ins) {
              out[eowner(in.eid)].push_back(
                  EMsg{kDown, 0, in.eid, in.pos == first->pos ? 1u : 0u, 0,
                       0});
            }
            bool found_up = false;
            for (const auto& o : outgoing.at(x)) {
              if (o.dst == pv.parent) {
                pv.up_pos = o.pos;
                found_up = true;
                break;
              }
            }
            EMCGM_CHECK(found_up);
            EMCGM_CHECK((pv.up_pos - pv.first_pos + 1) % 2 == 0);
            pv.subtree = (pv.up_pos - pv.first_pos + 1) / 2;
          }
          verts.push_back(pv);
        }
        ctx.set_output(verts, 1);
        for (std::uint32_t s = 0; s < v; ++s) ctx.send_vec(s, out[s]);
        break;
      }
      case 2: {  // per-edge outputs: depth delta, down flag, tour position
        std::vector<std::int64_t> delta(st.edges.size(), 0);
        std::vector<std::int64_t> downflag(st.edges.size(), 0);
        const std::uint64_t base = chunk_begin(t_, v, ctx.pid());
        for (const auto& r : ctx.recv_concat<EMsg>()) {
          EMCGM_ASSERT(r.kind == kDown);
          const auto i = static_cast<std::size_t>(r.a - base);
          delta[i] = r.b ? +1 : -1;
          downflag[i] = r.b ? 1 : 0;
        }
        ctx.set_output(delta, 0);
        // slot 1 (vertex summaries) was emitted in phase 1.
        ctx.set_output(downflag, 2);
        ctx.set_output(st.pos, 3);
        // Edge destinations; permuted by position they form the tour's
        // vertex sequence.
        std::vector<std::uint64_t> dsts(st.edges.size());
        for (std::size_t i = 0; i < st.edges.size(); ++i) {
          dsts[i] = st.edges[i].v;
        }
        ctx.set_output(dsts, 4);
        break;
      }
      default:
        EMCGM_CHECK_MSG(false, "euler_report ran past its final round");
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const ReportState& st) const override {
    return st.phase >= 3;
  }

 private:
  std::uint64_t n_;
  std::uint64_t t_;
};

// ---------------------------------------------------------------- stage 5 --

struct FinalState {
  std::uint32_t phase = 0;
  std::vector<PVert> verts;
  std::vector<std::int64_t> depth_prefix, pre_prefix;

  auto fields() { return std::tie(phase, verts, depth_prefix, pre_prefix); }
};

class EulerFinalizeProgram final : public cgm::ProgramT<FinalState> {
 public:
  EulerFinalizeProgram(std::uint64_t n_vertices, std::uint64_t n_dir_edges)
      : n_(n_vertices), t_(n_dir_edges) {}

  std::string name() const override { return "euler_finalize"; }

  void round(cgm::ProcCtx& ctx, FinalState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    auto powner = [&](std::uint64_t pos) {
      return static_cast<std::uint32_t>(chunk_owner(t_, v, pos));
    };
    switch (st.phase) {
      case 0: {  // query the prefix arrays at each vertex's first visit
        st.verts = ctx.input_items<PVert>(0);
        st.depth_prefix = ctx.input_items<std::int64_t>(1);
        st.pre_prefix = ctx.input_items<std::int64_t>(2);
        std::vector<std::vector<EMsg>> out(v);
        for (const auto& pv : st.verts) {
          if (pv.id == kRoot) continue;
          out[powner(pv.first_pos)].push_back(
              EMsg{kPosQ, 0, pv.first_pos, pv.id, 0, 0});
        }
        for (std::uint32_t s = 0; s < v; ++s) ctx.send_vec(s, out[s]);
        break;
      }
      case 1: {  // answer with both prefix values
        const std::uint64_t base = chunk_begin(t_, v, ctx.pid());
        std::vector<std::vector<EMsg>> out(v);
        auto vowner = [&](std::uint64_t x) {
          return static_cast<std::uint32_t>(chunk_owner(n_, v, x));
        };
        for (const auto& r : ctx.recv_concat<EMsg>()) {
          EMCGM_ASSERT(r.kind == kPosQ);
          const auto i = static_cast<std::size_t>(r.a - base);
          out[vowner(r.b)].push_back(EMsg{
              kPosA, 0, r.b,
              static_cast<std::uint64_t>(st.depth_prefix[i]),
              static_cast<std::uint64_t>(st.pre_prefix[i]), 0});
        }
        for (std::uint32_t s = 0; s < v; ++s) ctx.send_vec(s, out[s]);
        break;
      }
      case 2: {  // assemble final per-vertex results
        const std::uint64_t vbase = chunk_begin(n_, v, ctx.pid());
        std::vector<EulerResult> res(st.verts.size());
        for (std::size_t i = 0; i < st.verts.size(); ++i) {
          const auto& pv = st.verts[i];
          res[i] = EulerResult{pv.id, pv.parent, 0, 0, pv.subtree,
                               pv.first_pos};
        }
        for (const auto& r : ctx.recv_concat<EMsg>()) {
          EMCGM_ASSERT(r.kind == kPosA);
          const auto i = static_cast<std::size_t>(r.a - vbase);
          res[i].depth = r.b;
          res[i].preorder = r.c;
        }
        ctx.set_output(res, 0);
        break;
      }
      default:
        EMCGM_CHECK_MSG(false, "euler_finalize ran past its final round");
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const FinalState& st) const override {
    return st.phase >= 3;
  }

 private:
  std::uint64_t n_;
  std::uint64_t t_;
};

struct EdgeLess {
  bool operator()(const Edge& a, const Edge& b) const {
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  }
};

cgm::DistVec<EulerResult> single_vertex_result(cgm::Machine& m) {
  cgm::DistVec<EulerResult> dv;
  dv.total = 1;
  dv.set.parts.resize(m.v());
  std::vector<EulerResult> root{EulerResult{0, kNil, 0, 0, 1}};
  dv.set.parts[0] = vec_to_bytes(root);
  return dv;
}

}  // namespace

cgm::DistVec<EulerResult> euler_tour(cgm::Machine& m,
                                     const std::vector<Edge>& tree_edges,
                                     std::uint64_t n_vertices) {
  EMCGM_CHECK(n_vertices >= 1);
  if (n_vertices == 1) {
    EMCGM_CHECK(tree_edges.empty());
    return single_vertex_result(m);
  }
  return euler_tour_full(m, tree_edges, n_vertices).verts;
}

EulerTourData euler_tour_full(cgm::Machine& m,
                              const std::vector<Edge>& tree_edges,
                              std::uint64_t n_vertices) {
  EMCGM_CHECK(n_vertices >= 2);
  EMCGM_CHECK_MSG(tree_edges.size() + 1 == n_vertices,
                  "a tree on n vertices has n-1 edges");
  const std::uint64_t T = 2 * tree_edges.size();

  // Stage 1: direct and sort the edges; ids = sorted ranks.
  std::vector<Edge> directed;
  directed.reserve(T);
  for (const auto& e : tree_edges) {
    EMCGM_CHECK(e.u != e.v && e.u < n_vertices && e.v < n_vertices);
    directed.push_back(Edge{e.u, e.v});
    directed.push_back(Edge{e.v, e.u});
  }
  auto sorted =
      algo::sample_sort<Edge, EdgeLess>(m, m.scatter<Edge>(directed));

  // Stage 2: tour successors.
  EulerSuccProgram succ_prog(n_vertices, T);
  std::vector<cgm::PartitionSet> in2;
  in2.push_back(sorted.set);  // keep a copy of the sorted edges for stage 4
  auto out2 = m.run(succ_prog, std::move(in2));

  // Stage 3: list-rank the tour.
  auto ranks = list_ranking(
      m, cgm::Machine::as_dist<ListNode>(std::move(out2.at(0))), T);

  // Stage 4: per-vertex summaries and per-edge flags.
  EulerReportProgram report_prog(n_vertices, T);
  std::vector<cgm::PartitionSet> in4;
  in4.push_back(std::move(sorted.set));
  in4.push_back(std::move(ranks.set));
  auto out4 = m.run(report_prog, std::move(in4));
  auto deltas = cgm::Machine::as_dist<std::int64_t>(std::move(out4.at(0)));
  auto verts = std::move(out4.at(1));
  auto downflags = cgm::Machine::as_dist<std::int64_t>(std::move(out4.at(2)));
  auto positions = cgm::Machine::as_dist<std::uint64_t>(std::move(out4.at(3)));
  auto dsts = cgm::Machine::as_dist<std::uint64_t>(std::move(out4.at(4)));

  // Stage 5: permute the per-edge arrays into tour order and prefix-sum.
  auto pos_copy = positions;  // permute consumes its target vector
  auto pos_copy2 = positions;
  auto depth_arr = algo::prefix_scan(
      m, algo::permute<std::int64_t>(m, std::move(deltas), std::move(positions)),
      /*inclusive=*/true);
  auto pre_arr = algo::prefix_scan(
      m, algo::permute<std::int64_t>(m, std::move(downflags), std::move(pos_copy)),
      /*inclusive=*/true);
  auto tour_seq =
      algo::permute<std::uint64_t>(m, std::move(dsts), std::move(pos_copy2));

  // Stage 6: vertices look up their depth and preorder.
  EulerFinalizeProgram fin_prog(n_vertices, T);
  std::vector<cgm::PartitionSet> in6;
  in6.push_back(std::move(verts));
  in6.push_back(std::move(depth_arr.set));
  in6.push_back(std::move(pre_arr.set));
  auto out6 = m.run(fin_prog, std::move(in6));
  EulerTourData data;
  data.verts = cgm::Machine::as_dist<EulerResult>(std::move(out6.at(0)));
  data.tour = std::move(tour_seq);
  data.n_vertices = n_vertices;
  return data;
}

std::vector<EulerResult> euler_tour_all(cgm::Machine& m,
                                        const std::vector<Edge>& tree_edges,
                                        std::uint64_t n_vertices) {
  auto res = m.gather(euler_tour(m, tree_edges, n_vertices));
  std::sort(res.begin(), res.end(),
            [](const EulerResult& a, const EulerResult& b) {
              return a.id < b.id;
            });
  return res;
}

std::vector<EulerResult> euler_tour_seq(const std::vector<Edge>& tree_edges,
                                        std::uint64_t n_vertices) {
  std::vector<std::vector<std::uint64_t>> adj(n_vertices);
  for (const auto& e : tree_edges) {
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  for (auto& nb : adj) std::sort(nb.begin(), nb.end());

  std::vector<EulerResult> res(n_vertices);
  for (std::uint64_t x = 0; x < n_vertices; ++x) res[x].id = x;
  res[kRoot].parent = kNil;

  // Iterative DFS matching the tour's child order: from a vertex entered
  // via its parent, children are visited in cyclic neighbor order starting
  // just after the parent; the root starts at its smallest neighbor.
  std::uint64_t preorder = 0;
  struct Frame {
    std::uint64_t vertex;
    std::size_t next_i;  // index into the cyclic order
  };
  std::vector<Frame> stack{{kRoot, 0}};
  res[kRoot].depth = 0;
  res[kRoot].preorder = preorder++;
  std::vector<std::size_t> start(n_vertices, 0);
  while (!stack.empty()) {
    Frame& f = stack.back();
    const auto& nb = adj[f.vertex];
    bool descended = false;
    while (f.next_i < nb.size()) {
      const std::size_t idx = (start[f.vertex] + f.next_i) % nb.size();
      const std::uint64_t w = nb[idx];
      ++f.next_i;
      if (f.vertex != kRoot && w == res[f.vertex].parent) continue;
      res[w].parent = f.vertex;
      res[w].depth = res[f.vertex].depth + 1;
      res[w].preorder = preorder++;
      // Child w resumes after its parent in its own adjacency.
      const auto pit = std::lower_bound(adj[w].begin(), adj[w].end(),
                                        f.vertex);
      start[w] = static_cast<std::size_t>(pit - adj[w].begin()) + 1;
      stack.push_back(Frame{w, 0});
      descended = true;
      break;
    }
    if (!descended) {
      stack.pop_back();
    }
  }
  // Subtree sizes bottom-up.
  std::vector<std::uint64_t> order(n_vertices);
  for (std::uint64_t x = 0; x < n_vertices; ++x) order[x] = x;
  std::sort(order.begin(), order.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              return res[a].depth > res[b].depth;
            });
  for (auto x : order) res[x].subtree = 1;
  for (auto x : order) {
    if (res[x].parent != kNil) res[res[x].parent].subtree += res[x].subtree;
  }
  return res;
}

}  // namespace emcgm::graph
