#include "graph/connectivity.h"

#include <algorithm>
#include <numeric>

#include "algo/primitives.h"
#include "util/math.h"

namespace emcgm::graph {

namespace {

struct CMsg {
  std::uint32_t kind;
  std::uint32_t pad = 0;
  std::uint64_t a = 0, b = 0, c = 0, d = 0;
};

enum CKind : std::uint32_t {
  kLabelQ = 0,   // a = vertex, b = edge local idx, c = endpoint (0/1)
  kLabelA = 1,   // a = edge local idx, b = endpoint, c = label
  kLive = 2,     // a = live edge count at the sender
  kProp = 3,     // a = root label, b = other label, c/d = edge endpoints
  kChaseQ = 4,   // a = target vertex (== C(x)), b = asker vertex
  kChaseA = 5,   // a = asker vertex, b = target's current label
};

enum Mode : std::uint32_t {
  kInit = 0,        // absorb, first label queries
  kAnswer = 1,      // vertex owners answer label queries
  kPropose = 2,     // edges apply labels, gossip live count, propose
  kHook = 3,        // owners hook roots; start chase or finish
  kChaseReply = 4,  // owners answer chase queries
  kChaseApply = 5,  // appliers update labels; requery or loop back
  kDone = 6,
};

struct CcState {
  std::uint32_t mode = kInit;
  std::uint32_t chase_round = 0;
  std::uint64_t live_total = 0;
  std::vector<Edge> edges;             // local edge partition
  std::vector<std::uint64_t> cu, cv;   // cached endpoint labels
  std::vector<std::uint64_t> labels;   // C(x) for local vertices
  std::vector<Edge> forest;            // hooking edges chosen locally

  auto fields() {
    return std::tie(mode, chase_round, live_total, edges, cu, cv, labels,
                    forest);
  }
};

class ConnectivityProgram final : public cgm::ProgramT<CcState> {
 public:
  explicit ConnectivityProgram(std::uint64_t n_vertices)
      : n_(n_vertices), jumps_(floor_log2(n_vertices ? n_vertices : 1) + 2) {}

  std::string name() const override { return "connected_components"; }

  void round(cgm::ProcCtx& ctx, CcState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    const std::uint64_t vbase = chunk_begin(n_, v, ctx.pid());
    const std::uint64_t vcnt = chunk_size(n_, v, ctx.pid());
    auto vowner = [&](std::uint64_t x) {
      return static_cast<std::uint32_t>(chunk_owner(n_, v, x));
    };
    std::vector<std::vector<CMsg>> out(v);
    auto flush = [&] {
      for (std::uint32_t s = 0; s < v; ++s) {
        if (!out[s].empty()) ctx.send_vec(s, out[s]);
      }
    };
    auto send_label_queries = [&] {
      for (std::size_t i = 0; i < st.edges.size(); ++i) {
        out[vowner(st.edges[i].u)].push_back(
            CMsg{kLabelQ, 0, st.edges[i].u, i, 0, 0});
        out[vowner(st.edges[i].v)].push_back(
            CMsg{kLabelQ, 0, st.edges[i].v, i, 1, 0});
      }
    };

    switch (st.mode) {
      case kInit: {
        st.edges = ctx.input_items<Edge>(0);
        for (const auto& e : st.edges) {
          EMCGM_CHECK(e.u < n_ && e.v < n_ && e.u != e.v);
        }
        st.cu.assign(st.edges.size(), 0);
        st.cv.assign(st.edges.size(), 0);
        st.labels.resize(vcnt);
        std::iota(st.labels.begin(), st.labels.end(), vbase);
        send_label_queries();
        st.mode = kAnswer;
        break;
      }

      case kAnswer: {
        const auto by_src = prim::recv_by_src<CMsg>(ctx);
        for (std::uint32_t src = 0; src < v; ++src) {
          for (const auto& r : by_src[src]) {
            EMCGM_ASSERT(r.kind == kLabelQ);
            out[src].push_back(CMsg{
                kLabelA, 0, r.b, r.c,
                st.labels[static_cast<std::size_t>(r.a - vbase)], 0});
          }
        }
        st.mode = kPropose;
        break;
      }

      case kPropose: {
        for (const auto& r : ctx.recv_concat<CMsg>()) {
          EMCGM_ASSERT(r.kind == kLabelA);
          auto& slot = r.b == 0 ? st.cu : st.cv;
          slot[static_cast<std::size_t>(r.a)] = r.c;
        }
        std::uint64_t live = 0;
        for (std::size_t i = 0; i < st.edges.size(); ++i) {
          if (st.cu[i] == st.cv[i]) continue;
          ++live;
          out[vowner(st.cu[i])].push_back(CMsg{kProp, 0, st.cu[i], st.cv[i],
                                               st.edges[i].u,
                                               st.edges[i].v});
          out[vowner(st.cv[i])].push_back(CMsg{kProp, 0, st.cv[i], st.cu[i],
                                               st.edges[i].u,
                                               st.edges[i].v});
        }
        for (std::uint32_t s = 0; s < v; ++s) {
          out[s].push_back(CMsg{kLive, 0, live, 0, 0, 0});
        }
        st.mode = kHook;
        break;
      }

      case kHook: {
        // Collect the minimum proposal per local root.
        std::vector<CMsg> best(vcnt,
                               CMsg{kProp, 0, 0, kNil, 0, 0});
        std::uint64_t live_total = 0;
        for (const auto& r : ctx.recv_concat<CMsg>()) {
          if (r.kind == kLive) {
            live_total += r.a;
            continue;
          }
          EMCGM_ASSERT(r.kind == kProp);
          auto& b = best[static_cast<std::size_t>(r.a - vbase)];
          if (r.b < b.b) b = r;
        }
        st.live_total = live_total;
        if (live_total == 0) {
          std::vector<Component> comps(vcnt);
          for (std::uint64_t x = 0; x < vcnt; ++x) {
            comps[x] = Component{vbase + x, st.labels[x]};
          }
          ctx.set_output(comps, 0);
          ctx.set_output(st.forest, 1);
          st.mode = kDone;
          break;
        }
        for (std::uint64_t x = 0; x < vcnt; ++x) {
          const auto& b = best[x];
          // Hook a star root onto a strictly smaller neighboring label.
          if (st.labels[x] == vbase + x && b.b < vbase + x) {
            st.labels[x] = b.b;
            st.forest.push_back(Edge{b.c, b.d});
          }
        }
        st.chase_round = 0;
        for (std::uint64_t x = 0; x < vcnt; ++x) {
          if (st.labels[x] != vbase + x) {
            out[vowner(st.labels[x])].push_back(
                CMsg{kChaseQ, 0, st.labels[x], vbase + x, 0, 0});
          }
        }
        st.mode = kChaseReply;
        break;
      }

      case kChaseReply: {
        const auto by_src = prim::recv_by_src<CMsg>(ctx);
        for (std::uint32_t src = 0; src < v; ++src) {
          for (const auto& r : by_src[src]) {
            EMCGM_ASSERT(r.kind == kChaseQ);
            out[src].push_back(CMsg{
                kChaseA, 0, r.b,
                st.labels[static_cast<std::size_t>(r.a - vbase)], 0, 0});
          }
        }
        st.mode = kChaseApply;
        break;
      }

      case kChaseApply: {
        for (const auto& r : ctx.recv_concat<CMsg>()) {
          EMCGM_ASSERT(r.kind == kChaseA);
          st.labels[static_cast<std::size_t>(r.a - vbase)] = r.b;
        }
        st.chase_round += 1;
        if (st.chase_round < jumps_) {
          for (std::uint64_t x = 0; x < vcnt; ++x) {
            if (st.labels[x] != vbase + x) {
              out[vowner(st.labels[x])].push_back(
                  CMsg{kChaseQ, 0, st.labels[x], vbase + x, 0, 0});
            }
          }
          st.mode = kChaseReply;
        } else {
          send_label_queries();
          st.mode = kAnswer;
        }
        break;
      }

      default:
        EMCGM_CHECK_MSG(false, "connected_components ran past completion");
    }
    flush();
  }

  bool done(const cgm::ProcCtx&, const CcState& st) const override {
    return st.mode == kDone;
  }

 private:
  std::uint64_t n_;
  std::uint32_t jumps_;
};

}  // namespace

ConnectivityResult connected_components(cgm::Machine& m,
                                        const std::vector<Edge>& edges,
                                        std::uint64_t n_vertices) {
  EMCGM_CHECK(n_vertices >= 1);
  ConnectivityProgram prog(n_vertices);
  // The edge input must be padded to one partition per virtual processor;
  // the vertex arrays are derived from n_vertices, not the input layout.
  auto dv = m.scatter<Edge>(edges);
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(dv.set));
  auto outs = m.run(prog, std::move(inputs));
  ConnectivityResult res;
  res.components =
      m.gather(cgm::Machine::as_dist<Component>(std::move(outs.at(0))));
  std::sort(res.components.begin(), res.components.end(),
            [](const Component& a, const Component& b) { return a.id < b.id; });
  res.forest = m.gather(cgm::Machine::as_dist<Edge>(std::move(outs.at(1))));
  return res;
}

std::vector<Component> connected_components_seq(const std::vector<Edge>& edges,
                                                std::uint64_t n_vertices) {
  std::vector<std::uint64_t> parent(n_vertices);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](std::uint64_t x) -> std::uint64_t {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const auto& e : edges) {
    auto a = find(e.u), b = find(e.v);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  // Canonicalize to minimum id per component.
  std::vector<Component> res(n_vertices);
  for (std::uint64_t x = 0; x < n_vertices; ++x) {
    res[x] = Component{x, find(x)};
  }
  return res;
}

}  // namespace emcgm::graph
