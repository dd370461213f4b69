#include "graph/biconnectivity.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "algo/primitives.h"
#include "graph/connectivity.h"
#include "graph/euler_tour.h"
#include "util/math.h"

namespace emcgm::graph {

namespace {

struct BMsg {
  std::uint32_t kind;
  std::uint32_t pad = 0;
  std::uint64_t a = 0, b = 0, c = 0, d = 0;
};

enum BKind : std::uint32_t {
  kBlock = 0,   // a = sender chunk, b = chunk min, c = chunk max
  kRangeQ = 1,  // a = lo, b = hi (inclusive, one chunk), c = asker vertex
  kRangeA = 2,  // a = asker vertex, b = partial min, c = partial max
};

constexpr std::uint64_t kInf = ~std::uint64_t{0};

struct AggState {
  std::uint32_t phase = 0;
  std::vector<std::uint64_t> mmin, mmax, sz;
  std::vector<std::uint64_t> blk_min, blk_max;
  std::vector<std::uint64_t> low, high;

  auto fields() {
    return std::tie(phase, mmin, mmax, sz, blk_min, blk_max, low, high);
  }
};

/// Batched subtree aggregates: vertices are preorder ids, so the subtree
/// of x is the contiguous interval [x, x + sz[x]); low/high of x are the
/// min of mmin / max of mmax over that interval. Same block-decomposition
/// range scheme as the LCA module, for min and max simultaneously.
class SubtreeAggProgram final : public cgm::ProgramT<AggState> {
 public:
  explicit SubtreeAggProgram(std::uint64_t n) : n_(n) {}

  std::string name() const override { return "subtree_aggregates"; }

  void round(cgm::ProcCtx& ctx, AggState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    const std::uint64_t base = chunk_begin(n_, v, ctx.pid());
    auto owner = [&](std::uint64_t x) {
      return static_cast<std::uint32_t>(chunk_owner(n_, v, x));
    };
    std::vector<std::vector<BMsg>> out(v);

    switch (st.phase) {
      case 0: {  // absorb; gossip chunk extremes; fire boundary requests
        st.mmin = ctx.input_items<std::uint64_t>(0);
        st.mmax = ctx.input_items<std::uint64_t>(1);
        st.sz = ctx.input_items<std::uint64_t>(2);
        std::uint64_t cmin = kInf, cmax = 0;
        for (std::size_t i = 0; i < st.mmin.size(); ++i) {
          cmin = std::min(cmin, st.mmin[i]);
          cmax = std::max(cmax, st.mmax[i]);
        }
        for (std::uint32_t s = 0; s < v; ++s) {
          out[s].push_back(BMsg{kBlock, 0, ctx.pid(), cmin, cmax});
        }
        for (std::size_t i = 0; i < st.sz.size(); ++i) {
          const std::uint64_t x = base + i;
          const std::uint64_t lo = x, hi = x + st.sz[i] - 1;
          const std::uint32_t clo = owner(lo), chi = owner(hi);
          if (clo == chi) {
            out[clo].push_back(BMsg{kRangeQ, 0, lo, hi, x});
          } else {
            out[clo].push_back(BMsg{
                kRangeQ, 0, lo,
                chunk_begin(n_, v, clo) + chunk_size(n_, v, clo) - 1, x});
            out[chi].push_back(
                BMsg{kRangeQ, 0, chunk_begin(n_, v, chi), hi, x});
          }
        }
        break;
      }
      case 1: {  // collect block table; answer boundary ranges
        st.blk_min.assign(v, kInf);
        st.blk_max.assign(v, 0);
        for (const auto& r : ctx.recv_concat<BMsg>()) {
          if (r.kind == kBlock) {
            st.blk_min[static_cast<std::size_t>(r.a)] = r.b;
            st.blk_max[static_cast<std::size_t>(r.a)] = r.c;
            continue;
          }
          EMCGM_ASSERT(r.kind == kRangeQ);
          std::uint64_t mn = kInf, mx = 0;
          for (std::uint64_t p = r.a; p <= r.b; ++p) {
            const auto i = static_cast<std::size_t>(p - base);
            mn = std::min(mn, st.mmin[i]);
            mx = std::max(mx, st.mmax[i]);
          }
          out[owner(r.c)].push_back(BMsg{kRangeA, 0, r.c, mn, mx});
        }
        break;
      }
      case 2: {  // combine boundaries with middle blocks
        st.low.assign(st.sz.size(), kInf);
        st.high.assign(st.sz.size(), 0);
        for (const auto& r : ctx.recv_concat<BMsg>()) {
          EMCGM_ASSERT(r.kind == kRangeA);
          const auto i = static_cast<std::size_t>(r.a - base);
          st.low[i] = std::min(st.low[i], r.b);
          st.high[i] = std::max(st.high[i], r.c);
        }
        for (std::size_t i = 0; i < st.sz.size(); ++i) {
          const std::uint64_t x = base + i;
          const std::uint32_t clo = owner(x);
          const std::uint32_t chi = owner(x + st.sz[i] - 1);
          for (std::uint32_t c = clo + 1; c < chi; ++c) {
            st.low[i] = std::min(st.low[i], st.blk_min[c]);
            st.high[i] = std::max(st.high[i], st.blk_max[c]);
          }
          EMCGM_CHECK(st.low[i] != kInf);
        }
        ctx.set_output(st.low, 0);
        ctx.set_output(st.high, 1);
        break;
      }
      default:
        EMCGM_CHECK_MSG(false, "subtree_aggregates ran past its final round");
    }
    for (std::uint32_t s = 0; s < v; ++s) {
      if (!out[s].empty()) ctx.send_vec(s, out[s]);
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const AggState& st) const override {
    return st.phase >= 3;
  }

 private:
  std::uint64_t n_;
};

}  // namespace

std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>>
subtree_min_max(cgm::Machine& m, const std::vector<std::uint64_t>& mmin,
                const std::vector<std::uint64_t>& mmax,
                const std::vector<std::uint64_t>& sz_by_pre) {
  EMCGM_CHECK(mmin.size() == mmax.size() && mmin.size() == sz_by_pre.size());
  SubtreeAggProgram agg(mmin.size());
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(m.scatter<std::uint64_t>(mmin).set);
  inputs.push_back(m.scatter<std::uint64_t>(mmax).set);
  inputs.push_back(m.scatter<std::uint64_t>(sz_by_pre).set);
  auto outs = m.run(agg, std::move(inputs));
  return {
      m.gather(cgm::Machine::as_dist<std::uint64_t>(std::move(outs.at(0)))),
      m.gather(cgm::Machine::as_dist<std::uint64_t>(std::move(outs.at(1))))};
}

std::vector<std::uint64_t> biconnected_components(
    cgm::Machine& m, const std::vector<Edge>& edges,
    std::uint64_t n_vertices) {
  EMCGM_CHECK(n_vertices >= 1);
  for (const auto& e : edges) {
    EMCGM_CHECK_MSG(e.u != e.v, "self-loops are not allowed");
  }
  if (edges.empty()) return {};

  // 1. Spanning tree (the input must be connected).
  auto cc = connected_components(m, edges, n_vertices);
  std::unordered_set<std::uint64_t> comps;
  for (const auto& c : cc.components) comps.insert(c.comp);
  EMCGM_CHECK_MSG(comps.size() == 1,
                  "biconnected_components requires a connected graph");

  // 2. Euler tour: parent, preorder, subtree size.
  auto euler = euler_tour_all(m, cc.forest, n_vertices);
  std::vector<std::uint64_t> pre(n_vertices), sz_by_pre(n_vertices),
      parent_pre(n_vertices, kNil);
  for (const auto& r : euler) pre[static_cast<std::size_t>(r.id)] = r.preorder;
  for (const auto& r : euler) {
    sz_by_pre[static_cast<std::size_t>(r.preorder)] = r.subtree;
    if (r.parent != kNil) {
      parent_pre[static_cast<std::size_t>(r.preorder)] =
          pre[static_cast<std::size_t>(r.parent)];
    }
  }

  // 3. Classify edges (in preorder ids) and build the per-vertex
  //    non-tree-neighbor extremes.
  std::unordered_set<std::uint64_t> tree_set;
  auto key = [&](std::uint64_t a, std::uint64_t b) {
    if (a > b) std::swap(a, b);
    return a * n_vertices + b;
  };
  for (const auto& e : cc.forest) {
    tree_set.insert(key(pre[static_cast<std::size_t>(e.u)],
                        pre[static_cast<std::size_t>(e.v)]));
  }
  std::vector<std::uint64_t> mmin(n_vertices), mmax(n_vertices);
  for (std::uint64_t x = 0; x < n_vertices; ++x) {
    mmin[static_cast<std::size_t>(x)] = x;
    mmax[static_cast<std::size_t>(x)] = x;
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> nontree;  // pre ids
  std::unordered_set<std::uint64_t> used_tree;  // first matching instance
  for (const auto& e : edges) {
    const std::uint64_t a = pre[static_cast<std::size_t>(e.u)];
    const std::uint64_t b = pre[static_cast<std::size_t>(e.v)];
    const std::uint64_t k = key(a, b);
    if (tree_set.count(k) && !used_tree.count(k)) {
      used_tree.insert(k);  // this instance is the tree edge
      continue;
    }
    nontree.emplace_back(a, b);
    mmin[static_cast<std::size_t>(a)] =
        std::min(mmin[static_cast<std::size_t>(a)], b);
    mmax[static_cast<std::size_t>(a)] =
        std::max(mmax[static_cast<std::size_t>(a)], b);
    mmin[static_cast<std::size_t>(b)] =
        std::min(mmin[static_cast<std::size_t>(b)], a);
    mmax[static_cast<std::size_t>(b)] =
        std::max(mmax[static_cast<std::size_t>(b)], a);
  }

  // 4. low/high by the batched subtree aggregate.
  auto [low, high] = subtree_min_max(m, mmin, mmax, sz_by_pre);

  // 5. The Tarjan-Vishkin auxiliary graph on tree edges (node = child's
  //    preorder id).
  auto unrelated = [&](std::uint64_t a, std::uint64_t b) {
    if (a > b) std::swap(a, b);
    return b >= a + sz_by_pre[static_cast<std::size_t>(a)];
  };
  std::vector<Edge> aux;
  for (const auto& [a, b] : nontree) {
    if (unrelated(a, b)) aux.push_back(Edge{a, b});  // rule 1
  }
  for (std::uint64_t w = 1; w < n_vertices; ++w) {  // rule 2
    const std::uint64_t v = parent_pre[static_cast<std::size_t>(w)];
    if (v == kNil || v == 0) continue;  // v must be a non-root vertex
    if (low[static_cast<std::size_t>(w)] < v ||
        high[static_cast<std::size_t>(w)] >=
            v + sz_by_pre[static_cast<std::size_t>(v)]) {
      aux.push_back(Edge{w, v});
    }
  }
  auto aux_cc = connected_components(m, aux, n_vertices);
  std::vector<std::uint64_t> label_of(n_vertices);
  for (const auto& c : aux_cc.components) {
    label_of[static_cast<std::size_t>(c.id)] = c.comp;
  }

  // 6. Edge labels: tree edge -> its child's component; non-tree edge ->
  //    its larger-preorder endpoint's component.
  std::vector<std::uint64_t> labels(edges.size());
  std::unordered_set<std::uint64_t> used2;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const std::uint64_t a = pre[static_cast<std::size_t>(edges[i].u)];
    const std::uint64_t b = pre[static_cast<std::size_t>(edges[i].v)];
    const std::uint64_t k = key(a, b);
    if (tree_set.count(k) && !used2.count(k)) {
      used2.insert(k);
      // The child is the deeper endpoint = the one whose parent is the
      // other.
      const std::uint64_t child =
          parent_pre[static_cast<std::size_t>(a)] == b ? a : b;
      labels[i] = label_of[static_cast<std::size_t>(child)];
    } else {
      labels[i] = label_of[static_cast<std::size_t>(std::max(a, b))];
    }
  }
  return labels;
}

std::vector<std::uint64_t> biconnected_components_seq(
    const std::vector<Edge>& edges, std::uint64_t n_vertices) {
  // Iterative Hopcroft-Tarjan with an explicit edge stack.
  std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> adj(
      n_vertices);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    adj[static_cast<std::size_t>(edges[i].u)].emplace_back(edges[i].v, i);
    adj[static_cast<std::size_t>(edges[i].v)].emplace_back(edges[i].u, i);
  }
  std::vector<std::uint64_t> labels(edges.size(), kNil);
  std::vector<std::uint64_t> num(n_vertices, kNil), low(n_vertices);
  std::vector<std::size_t> edge_stack;
  std::uint64_t counter = 0, next_label = 0;

  struct Frame {
    std::uint64_t v;
    std::uint64_t parent_edge;
    std::size_t next;
  };
  for (std::uint64_t root = 0; root < n_vertices; ++root) {
    if (num[static_cast<std::size_t>(root)] != kNil) continue;
    std::vector<Frame> stack{{root, kNil, 0}};
    num[static_cast<std::size_t>(root)] = counter;
    low[static_cast<std::size_t>(root)] = counter++;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto vi = static_cast<std::size_t>(f.v);
      if (f.next < adj[vi].size()) {
        const auto [w, ei] = adj[vi][f.next++];
        const auto wi = static_cast<std::size_t>(w);
        if (ei == f.parent_edge) continue;
        if (num[wi] == kNil) {
          edge_stack.push_back(ei);
          num[wi] = counter;
          low[wi] = counter++;
          stack.push_back(Frame{w, ei, 0});
        } else if (num[wi] < num[vi]) {
          edge_stack.push_back(ei);
          low[vi] = std::min(low[vi], num[wi]);
        }
      } else {
        const std::uint64_t child_low = low[vi];
        const std::uint64_t pe = f.parent_edge;
        stack.pop_back();
        if (stack.empty()) break;
        Frame& pf = stack.back();
        const auto pvi = static_cast<std::size_t>(pf.v);
        low[pvi] = std::min(low[pvi], child_low);
        if (child_low >= num[pvi]) {
          // pf.v is an articulation point (or root): pop one component.
          const std::uint64_t lbl = next_label++;
          while (!edge_stack.empty()) {
            const std::size_t ei = edge_stack.back();
            if (labels[ei] != kNil) {
              edge_stack.pop_back();
              continue;
            }
            if (ei == pe) {
              labels[ei] = lbl;
              edge_stack.pop_back();
              break;
            }
            labels[ei] = lbl;
            edge_stack.pop_back();
          }
        }
      }
    }
  }
  return labels;
}

std::vector<std::uint64_t> canonical_partition(
    const std::vector<std::uint64_t>& labels) {
  std::unordered_map<std::uint64_t, std::uint64_t> first_index;
  std::vector<std::uint64_t> canon(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    auto [it, fresh] = first_index.try_emplace(labels[i], i);
    canon[i] = it->second;
  }
  return canon;
}

}  // namespace emcgm::graph
