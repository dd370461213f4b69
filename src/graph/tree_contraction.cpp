#include "graph/tree_contraction.h"

#include <algorithm>

#include "algo/primitives.h"
#include "algo/sort.h"
#include "graph/list_ranking.h"
#include "util/math.h"

namespace emcgm::graph {

namespace {

// Directed tour edge ids for node x: down(x) = 2x (parent -> x) and
// up(x) = 2x + 1 (x -> parent). The root's two ids are unused dummies that
// become isolated single-node lists (harmless to the ranking).

struct TMsg {
  std::uint32_t kind;
  std::uint32_t pad = 0;
  std::uint64_t a = 0, b = 0, c = 0, d = 0, e = 0, f = 0, g = 0;
};

enum TKind : std::uint32_t {
  kUpQ = 0,      // a = parent, b = child (asking succ of up(child))
  kUpA = 1,      // a = child, b = successor edge id (kNil = tour end)
  kEdgeRec = 2,  // a = edge id, b = succ, c = is-down-to-leaf, d = leaf id
  kIdxSet = 3,   // a = leaf id, b = leaf index
  kSide = 4,     // a = child, b = side (0 = left, 1 = right)
  kCount = 5,    // a = surviving leaf count at the sender
  kRakeReq = 6,  // a = parent, b = leaf contribution c_l, c = leaf id
  kRakeSet = 7,  // a = sibling, b = new parent, c = new side, d = op_p,
                 // e = c_l, f = a_p, g = b_p
  kChild = 8,    // a = grandparent, b = side, c = new child
};

// ------------------------------------------------------------ tour build --

struct TourState {
  std::uint32_t phase = 0;
  std::vector<ExprNode> nodes;

  auto fields() { return std::tie(phase, nodes); }
};

/// Builds the tour successor list directly from the binary structure:
///   succ(down(x)) = down(x.left) if x internal, up(x) if x is a leaf;
///   succ(up(x))   = down(p.right) if x == p.left,
///                   up(p) (kNil at the root) if x == p.right.
/// The up-successor needs p's record — one query round. The ListNode and
/// leaf-marker records are then routed to the edge-id chunk layout.
class TourBuildProgram final : public cgm::ProgramT<TourState> {
 public:
  TourBuildProgram(std::uint64_t n, std::uint64_t root)
      : n_(n), t_(2 * n), root_(root) {}

  std::string name() const override { return "expr_tour_build"; }

  void round(cgm::ProcCtx& ctx, TourState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    auto nowner = [&](std::uint64_t x) {
      return static_cast<std::uint32_t>(chunk_owner(n_, v, x));
    };
    auto eowner = [&](std::uint64_t e) {
      return static_cast<std::uint32_t>(chunk_owner(t_, v, e));
    };
    std::vector<std::vector<TMsg>> out(v);
    switch (st.phase) {
      case 0: {  // ask each parent for the successor of up(x)
        st.nodes = ctx.input_items<ExprNode>(0);
        const std::uint64_t base = chunk_begin(n_, v, ctx.pid());
        for (std::size_t i = 0; i < st.nodes.size(); ++i) {
          EMCGM_CHECK(st.nodes[i].id == base + i);
          if (st.nodes[i].parent != kNil) {
            out[nowner(st.nodes[i].parent)].push_back(
                TMsg{kUpQ, 0, st.nodes[i].parent, st.nodes[i].id});
          }
        }
        break;
      }
      case 1: {  // parents answer the up-successor queries
        const std::uint64_t base = chunk_begin(n_, v, ctx.pid());
        for (const auto& r : ctx.recv_concat<TMsg>()) {
          EMCGM_ASSERT(r.kind == kUpQ);
          const ExprNode& p =
              st.nodes[static_cast<std::size_t>(r.a - base)];
          std::uint64_t succ;
          if (r.b == p.left) {
            succ = 2 * p.right;  // descend into the right subtree
          } else {
            EMCGM_CHECK(r.b == p.right);
            succ = p.parent == kNil ? kNil : 2 * p.id + 1;
          }
          out[nowner(r.b)].push_back(TMsg{kUpA, 0, r.b, succ});
        }
        break;
      }
      case 2: {  // emit both edges of every non-root node
        std::vector<std::uint64_t> up_succ(st.nodes.size(), kNil);
        const std::uint64_t base = chunk_begin(n_, v, ctx.pid());
        for (const auto& r : ctx.recv_concat<TMsg>()) {
          EMCGM_ASSERT(r.kind == kUpA);
          up_succ[static_cast<std::size_t>(r.a - base)] = r.b;
        }
        for (std::size_t i = 0; i < st.nodes.size(); ++i) {
          const ExprNode& x = st.nodes[i];
          if (x.id == root_) {
            out[eowner(2 * x.id)].push_back(
                TMsg{kEdgeRec, 0, 2 * x.id, kNil, 0, kNil});
            out[eowner(2 * x.id + 1)].push_back(
                TMsg{kEdgeRec, 0, 2 * x.id + 1, kNil, 0, kNil});
            continue;
          }
          const bool leaf = x.op == 0;
          const std::uint64_t down_succ = leaf ? 2 * x.id + 1 : 2 * x.left;
          out[eowner(2 * x.id)].push_back(TMsg{
              kEdgeRec, 0, 2 * x.id, down_succ, leaf ? 1u : 0u, x.id});
          out[eowner(2 * x.id + 1)].push_back(
              TMsg{kEdgeRec, 0, 2 * x.id + 1, up_succ[i], 0, kNil});
        }
        break;
      }
      case 3: {  // assemble dense edge-layout outputs
        const std::uint64_t ebase = chunk_begin(t_, v, ctx.pid());
        const std::uint64_t ecnt = chunk_size(t_, v, ctx.pid());
        std::vector<ListNode> list(ecnt);
        std::vector<std::uint64_t> leaf_of(ecnt, kNil);
        std::vector<char> seen(ecnt, 0);
        for (const auto& r : ctx.recv_concat<TMsg>()) {
          EMCGM_ASSERT(r.kind == kEdgeRec);
          const auto i = static_cast<std::size_t>(r.a - ebase);
          list[i] = ListNode{r.a, r.b};
          if (r.c) leaf_of[i] = r.d;
          seen[i] = 1;
        }
        for (char s : seen) EMCGM_CHECK(s);
        ctx.set_output(list, 0);
        ctx.set_output(leaf_of, 1);
        break;
      }
      default:
        EMCGM_CHECK_MSG(false, "expr_tour_build ran past its final round");
    }
    for (std::uint32_t s = 0; s < v; ++s) {
      if (!out[s].empty()) ctx.send_vec(s, out[s]);
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const TourState& st) const override {
    return st.phase >= 4;
  }

 private:
  std::uint64_t n_;
  std::uint64_t t_;
  std::uint64_t root_;
};

// --------------------------------------------------------- leaf indexing --

/// Pair (tour position of down(leaf), leaf id); sorted by position, the
/// global rank is the left-to-right leaf index.
struct LeafPos {
  std::uint64_t pos;
  std::uint64_t leaf;
};

struct LeafPosLess {
  bool operator()(const LeafPos& a, const LeafPos& b) const {
    return a.pos < b.pos;
  }
};

struct PairState {
  std::uint32_t phase = 0;
  auto fields() { return std::tie(phase); }
};

/// Local join of tour ranks with the leaf markers.
class LeafPosProgram final : public cgm::ProgramT<PairState> {
 public:
  explicit LeafPosProgram(std::uint64_t t) : t_(t) {}

  std::string name() const override { return "expr_leaf_pos"; }

  void round(cgm::ProcCtx& ctx, PairState& st) const override {
    EMCGM_CHECK(st.phase == 0);
    auto ranks = ctx.input_items<ListRank>(0);
    auto leaf_of = ctx.input_items<std::uint64_t>(1);
    EMCGM_CHECK(ranks.size() == leaf_of.size());
    // The main tour list has 2n-2 real edges (positions 0 .. 2n-3); the
    // two root dummies are never leaf-marked and are skipped here.
    std::vector<LeafPos> pairs;
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      if (leaf_of[i] == kNil) continue;
      pairs.push_back(LeafPos{t_ - 3 - ranks[i].rank, leaf_of[i]});
    }
    ctx.set_output(pairs, 0);
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const PairState& st) const override {
    return st.phase >= 1;
  }

 private:
  std::uint64_t t_;
};

/// After sorting by position: the chunk rank is the leaf index; send it to
/// the leaf's node owner and assemble a per-node index array.
class LeafIndexProgram final : public cgm::ProgramT<PairState> {
 public:
  LeafIndexProgram(std::uint64_t n, std::uint64_t n_leaves)
      : n_(n), leaves_(n_leaves) {}

  std::string name() const override { return "expr_leaf_index"; }

  void round(cgm::ProcCtx& ctx, PairState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    switch (st.phase) {
      case 0: {
        auto pairs = ctx.input_items<LeafPos>(0);
        const std::uint64_t base = chunk_begin(leaves_, v, ctx.pid());
        std::vector<std::vector<TMsg>> out(v);
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          const auto owner = static_cast<std::uint32_t>(
              chunk_owner(n_, v, pairs[i].leaf));
          out[owner].push_back(TMsg{kIdxSet, 0, pairs[i].leaf, base + i});
        }
        for (std::uint32_t s = 0; s < v; ++s) {
          if (!out[s].empty()) ctx.send_vec(s, out[s]);
        }
        break;
      }
      case 1: {
        const std::uint64_t base = chunk_begin(n_, v, ctx.pid());
        const std::uint64_t cnt = chunk_size(n_, v, ctx.pid());
        std::vector<std::uint64_t> idx(cnt, kNil);
        for (const auto& r : ctx.recv_concat<TMsg>()) {
          EMCGM_ASSERT(r.kind == kIdxSet);
          idx[static_cast<std::size_t>(r.a - base)] = r.b;
        }
        ctx.set_output(idx, 0);
        break;
      }
      default:
        EMCGM_CHECK_MSG(false, "expr_leaf_index ran past its final round");
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const PairState& st) const override {
    return st.phase >= 2;
  }

 private:
  std::uint64_t n_;
  std::uint64_t leaves_;
};

// ------------------------------------------------------------ contraction --

struct CNode {
  std::uint64_t parent = kNil;
  std::uint64_t left = kNil, right = kNil;
  std::uint32_t op = 0;    // 0 leaf, 1 '+', 2 '*'
  std::uint32_t side = 0;  // 0 = left child of parent, 1 = right
  std::uint64_t value = 0;
  std::uint64_t fa = 1, fb = 0;  // pending linear form a*x + b (mod 2^64)
  std::uint64_t leaf_idx = kNil;
  std::uint8_t alive = 1;
  std::uint8_t pad[7] = {};
};

// Contraction round = 4 supersteps:
//   A: apply previous round's updates and counts; finish if one leaf is
//      left; halve leaf indices; send rake requests for odd LEFT leaves;
//   B: parents execute the left rakes (splice sibling, update grandparent);
//   C: apply the splices; send rake requests for odd RIGHT leaves (their
//      own parent/side fields were provably untouched by the left phase);
//   D: parents execute the right rakes; gossip surviving leaf counts.
enum CMode : std::uint32_t {
  kCInit = 0,
  kCA = 1,
  kCB = 2,
  kCC = 3,
  kCD = 4,
  kCDone = 5,
};

struct ContractState {
  std::uint32_t mode = kCInit;
  std::uint32_t rounds = 0;
  std::uint64_t leaf_total = 0;
  std::vector<CNode> nodes;

  auto fields() { return std::tie(mode, rounds, leaf_total, nodes); }
};

class ContractionProgram final : public cgm::ProgramT<ContractState> {
 public:
  explicit ContractionProgram(std::uint64_t n) : n_(n) {}

  std::string name() const override { return "tree_contraction"; }

  void round(cgm::ProcCtx& ctx, ContractState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    const std::uint64_t base = chunk_begin(n_, v, ctx.pid());
    auto nowner = [&](std::uint64_t x) {
      return static_cast<std::uint32_t>(chunk_owner(n_, v, x));
    };
    std::vector<std::vector<TMsg>> out(v);

    // Apply every incoming record before acting.
    std::vector<TMsg> rake_reqs;
    std::uint64_t counted = 0;
    bool have_count = false;
    for (const auto& r : ctx.recv_concat<TMsg>()) {
      switch (r.kind) {
        case kSide:
          st.nodes[static_cast<std::size_t>(r.a - base)].side =
              static_cast<std::uint32_t>(r.b);
          break;
        case kCount:
          counted += r.a;
          have_count = true;
          break;
        case kRakeReq:
          rake_reqs.push_back(r);
          break;
        case kRakeSet: {
          auto& s = st.nodes[static_cast<std::size_t>(r.a - base)];
          s.parent = r.b;
          s.side = static_cast<std::uint32_t>(r.c);
          // Compose f_p( op(c_l, f_s(x)) ), all mod 2^64.
          const std::uint64_t op = r.d, cl = r.e, ap = r.f, bp = r.g;
          std::uint64_t ma, mb;
          if (op == 1) {  // '+'
            ma = s.fa;
            mb = s.fb + cl;
          } else {  // '*'
            ma = cl * s.fa;
            mb = cl * s.fb;
          }
          s.fa = ap * ma;
          s.fb = ap * mb + bp;
          break;
        }
        case kChild: {
          auto& g = st.nodes[static_cast<std::size_t>(r.a - base)];
          (r.b == 0 ? g.left : g.right) = r.c;
          break;
        }
        default:
          EMCGM_CHECK_MSG(false, "unexpected contraction record");
      }
    }
    if (have_count) st.leaf_total = counted;

    auto send_rake_requests = [&](std::uint32_t want_side) {
      for (std::size_t i = 0; i < st.nodes.size(); ++i) {
        CNode& x = st.nodes[i];
        if (!x.alive || x.op != 0 || x.parent == kNil) continue;
        if (x.leaf_idx == kNil || x.leaf_idx % 2 == 0) continue;
        if (x.side != want_side) continue;
        const std::uint64_t cl = x.fa * x.value + x.fb;
        out[nowner(x.parent)].push_back(
            TMsg{kRakeReq, 0, x.parent, cl, base + i});
        x.alive = 0;
      }
    };
    auto apply_rakes = [&] {
      for (const auto& q : rake_reqs) {
        CNode& p = st.nodes[static_cast<std::size_t>(q.a - base)];
        EMCGM_CHECK(p.alive && p.op != 0);
        const std::uint64_t sib = p.left == q.c ? p.right : p.left;
        EMCGM_CHECK(sib != kNil && (p.left == q.c || p.right == q.c));
        out[nowner(sib)].push_back(TMsg{kRakeSet, 0, sib, p.parent, p.side,
                                        p.op, q.b, p.fa, p.fb});
        if (p.parent != kNil) {
          out[nowner(p.parent)].push_back(
              TMsg{kChild, 0, p.parent, p.side, sib});
        }
        p.alive = 0;
      }
    };
    auto gossip_counts = [&] {
      std::uint64_t mine = 0;
      for (const auto& x : st.nodes) {
        if (x.alive && x.op == 0) ++mine;
      }
      for (std::uint32_t s = 0; s < v; ++s) {
        out[s].push_back(TMsg{kCount, 0, mine});
      }
    };

    switch (st.mode) {
      case kCInit: {
        auto in = ctx.input_items<ExprNode>(0);
        auto idx = ctx.input_items<std::uint64_t>(1);
        EMCGM_CHECK(in.size() == idx.size());
        st.nodes.resize(in.size());
        for (std::size_t i = 0; i < in.size(); ++i) {
          EMCGM_CHECK(in[i].id == base + i);
          CNode c;
          c.parent = in[i].parent;
          c.left = in[i].left;
          c.right = in[i].right;
          c.op = in[i].op;
          c.value = in[i].value;
          c.leaf_idx = idx[i];
          st.nodes[i] = c;
          if (in[i].op != 0) {
            out[nowner(in[i].left)].push_back(
                TMsg{kSide, 0, in[i].left, 0});
            out[nowner(in[i].right)].push_back(
                TMsg{kSide, 0, in[i].right, 1});
          }
        }
        gossip_counts();
        st.mode = kCA;
        break;
      }

      case kCA: {
        if (st.leaf_total == 1) {
          std::vector<std::uint64_t> result;
          for (const auto& x : st.nodes) {
            if (x.alive && x.op == 0) {
              EMCGM_CHECK(x.parent == kNil);
              result.push_back(x.fa * x.value + x.fb);
            }
          }
          ctx.set_output(result, 0);
          st.mode = kCDone;
          break;
        }
        if (st.rounds > 0) {
          for (auto& x : st.nodes) {
            if (x.alive && x.op == 0 && x.leaf_idx != kNil) x.leaf_idx /= 2;
          }
        }
        st.rounds += 1;
        send_rake_requests(0);
        st.mode = kCB;
        break;
      }

      case kCB:
        apply_rakes();
        st.mode = kCC;
        break;

      case kCC:
        send_rake_requests(1);
        st.mode = kCD;
        break;

      case kCD:
        apply_rakes();
        gossip_counts();
        st.mode = kCA;
        break;

      default:
        EMCGM_CHECK_MSG(false, "tree_contraction ran past completion");
    }

    for (std::uint32_t s = 0; s < v; ++s) {
      if (!out[s].empty()) ctx.send_vec(s, out[s]);
    }
  }

  bool done(const cgm::ProcCtx&, const ContractState& st) const override {
    return st.mode == kCDone;
  }

 private:
  std::uint64_t n_;
};

}  // namespace

std::uint64_t eval_expression_cgm(cgm::Machine& m,
                                  std::vector<ExprNode> nodes,
                                  std::uint64_t root) {
  const std::uint64_t n = nodes.size();
  EMCGM_CHECK(n >= 1);
  std::sort(nodes.begin(), nodes.end(),
            [](const ExprNode& a, const ExprNode& b) { return a.id < b.id; });
  if (n == 1) {
    EMCGM_CHECK(nodes[0].op == 0);
    return nodes[0].value;
  }
  std::uint64_t n_leaves = 0;
  for (const auto& x : nodes) {
    if (x.op == 0) ++n_leaves;
  }
  EMCGM_CHECK_MSG(n == 2 * n_leaves - 1,
                  "expression tree must be full binary");

  auto dnodes = m.scatter<ExprNode>(nodes);

  // Leaf numbering: tour -> ranks -> (pos, leaf) pairs -> sort -> indices.
  TourBuildProgram tour(n, root);
  std::vector<cgm::PartitionSet> in1;
  in1.push_back(dnodes.set);  // contraction reuses the node partitions
  auto out1 = m.run(tour, std::move(in1));
  auto ranks = list_ranking(
      m, cgm::Machine::as_dist<ListNode>(std::move(out1.at(0))), 2 * n);

  LeafPosProgram leafpos(2 * n);
  std::vector<cgm::PartitionSet> in2;
  in2.push_back(std::move(ranks.set));
  in2.push_back(std::move(out1.at(1)));
  auto out2 = m.run(leafpos, std::move(in2));
  auto sorted = algo::sample_sort<LeafPos, LeafPosLess>(
      m, cgm::Machine::as_dist<LeafPos>(std::move(out2.at(0))));

  LeafIndexProgram leafidx(n, n_leaves);
  std::vector<cgm::PartitionSet> in3;
  in3.push_back(std::move(sorted.set));
  auto out3 = m.run(leafidx, std::move(in3));

  ContractionProgram contract(n);
  std::vector<cgm::PartitionSet> in4;
  in4.push_back(std::move(dnodes.set));
  in4.push_back(std::move(out3.at(0)));
  auto out4 = m.run(contract, std::move(in4));
  auto result =
      m.gather(cgm::Machine::as_dist<std::uint64_t>(std::move(out4.at(0))));
  EMCGM_CHECK(result.size() == 1);
  return result[0];
}

}  // namespace emcgm::graph
