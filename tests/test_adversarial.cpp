// Adversarial and degenerate inputs across the algorithm library — the
// cases most likely to break slab decompositions, sampling, contraction
// parities, and chunk arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "algo/sort.h"
#include "cgm/machine.h"
#include "geom/dominance.h"
#include "geom/lower_envelope.h"
#include "geom/maxima3d.h"
#include "geom/nearest_neighbor.h"
#include "geom/rect_union.h"
#include "geom/segment_stab.h"
#include "graph/euler_tour.h"
#include "graph/graph.h"
#include "graph/lca.h"
#include "graph/list_ranking.h"
#include "graph/tree_contraction.h"
#include "util/rng.h"

using namespace emcgm;

namespace {

cgm::Machine em_machine(std::uint32_t v, std::uint32_t p = 1) {
  cgm::MachineConfig cfg;
  cfg.v = v;
  cfg.p = p;
  cfg.disk.num_disks = 2;
  cfg.disk.block_bytes = 256;
  return cgm::Machine(cgm::EngineKind::kEm, cfg);
}

}  // namespace

// ------------------------------------------------------------------ sort --

TEST(Adversarial, SortSizesAroundChunkBoundaries) {
  auto m = em_machine(7);
  // Sizes straddling v, v^2, v^3 and off-by-one around them.
  for (std::size_t n : {6u, 7u, 8u, 48u, 49u, 50u, 342u, 343u, 344u}) {
    auto keys = random_keys(n, n);
    auto expect = keys;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(algo::sort_keys(m, keys), expect) << "n=" << n;
  }
}

TEST(Adversarial, SortOrganPipeAndSawtooth) {
  auto m = em_machine(8);
  const std::size_t n = 4096;
  std::vector<std::uint64_t> organ(n), saw(n);
  for (std::size_t i = 0; i < n; ++i) {
    organ[i] = std::min(i, n - i);  // ramps up then down
    saw[i] = i % 17;
  }
  for (auto* keys : {&organ, &saw}) {
    auto expect = *keys;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(algo::sort_keys(m, *keys), expect);
  }
}

// ------------------------------------------------------------- geometry --

TEST(Adversarial, RectUnionIdenticalAndNested) {
  auto m = em_machine(4);
  // 200 identical rectangles: area of one.
  std::vector<geom::Rect> same(200, geom::Rect{0.1, 0.1, 0.4, 0.3, 0});
  EXPECT_NEAR(geom::rect_union_area(m, same), 0.3 * 0.2, 1e-12);
  // Perfectly nested rectangles: area of the outermost.
  std::vector<geom::Rect> nested;
  for (int i = 0; i < 100; ++i) {
    const double d = 0.001 * i;
    nested.push_back(geom::Rect{d, d, 1.0 - d, 1.0 - d,
                                static_cast<std::uint64_t>(i)});
  }
  EXPECT_NEAR(geom::rect_union_area(m, nested), 1.0, 1e-12);
  // A row of disjoint rectangles.
  std::vector<geom::Rect> row;
  for (int i = 0; i < 50; ++i) {
    row.push_back(geom::Rect{2.0 * i, 0, 2.0 * i + 1, 1,
                             static_cast<std::uint64_t>(i)});
  }
  EXPECT_NEAR(geom::rect_union_area(m, row), 50.0, 1e-9);
}

TEST(Adversarial, NearestNeighborsClusters) {
  auto m = em_machine(6);
  // Two tight clusters far apart plus isolated points: slab boundary
  // queries must reach across several slabs.
  Rng rng(77);
  std::vector<geom::Point2> pts;
  std::uint64_t id = 0;
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < 60; ++i) {
      pts.push_back(geom::Point2{c * 100.0 + rng.next_double() * 0.01,
                                 rng.next_double() * 0.01, id++});
    }
  }
  pts.push_back(geom::Point2{50.0, 0.0, id++});  // lonely middle point
  auto got = geom::all_nearest_neighbors(m, pts);
  auto want = geom::all_nearest_neighbors_brute(pts);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].nn_id, want[i].nn_id) << "point " << got[i].id;
  }
}

TEST(Adversarial, NearestNeighborsTwoPoints) {
  auto m = em_machine(4);
  std::vector<geom::Point2> pts{{0, 0, 0}, {3, 4, 1}};
  auto got = geom::all_nearest_neighbors(m, pts);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].nn_id, 1u);
  EXPECT_EQ(got[1].nn_id, 0u);
  EXPECT_DOUBLE_EQ(got[0].d2, 25.0);
}

TEST(Adversarial, Maxima3dChainAndAntichain) {
  auto m = em_machine(5);
  // Strictly increasing chain: only the last point is maximal.
  std::vector<geom::Point3> chain;
  for (int i = 0; i < 500; ++i) {
    const double t = i * 0.001;
    chain.push_back(geom::Point3{t, t + 0.0001, t + 0.0002,
                                 static_cast<std::uint64_t>(i)});
  }
  auto mc = geom::maxima3d(m, chain);
  ASSERT_EQ(mc.size(), 1u);
  EXPECT_EQ(mc[0].id, 499u);
  // Antichain (x increasing, y and z decreasing): everything maximal.
  std::vector<geom::Point3> anti;
  for (int i = 0; i < 400; ++i) {
    anti.push_back(geom::Point3{i * 1.0, 400.0 - i, 400.0 - i,
                                static_cast<std::uint64_t>(i)});
  }
  EXPECT_EQ(geom::maxima3d(m, anti).size(), anti.size());
}

TEST(Adversarial, StabbingFullAndEmptyOverlap) {
  auto m = em_machine(4);
  // All intervals cover [0.4, 0.6]; queries inside/outside.
  std::vector<geom::Interval> iv;
  for (int i = 0; i < 300; ++i) {
    iv.push_back(geom::Interval{0.4 - i * 1e-4, 0.6 + i * 1e-4,
                                static_cast<std::uint64_t>(i)});
  }
  std::vector<geom::StabQuery> qs{{0.5, 0}, {0.99, 1}, {0.0, 2}, {0.41, 3}};
  auto got = geom::interval_stabbing(m, iv, qs);
  auto want = geom::interval_stabbing_brute(iv, qs);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].count, want[i].count) << "query " << i;
  }
  EXPECT_EQ(got[0].count, 300u);
}

TEST(Adversarial, LowerEnvelopeNestedSpans) {
  auto m = em_machine(4);
  // Telescoping segments: lower ones span wider x-ranges.
  std::vector<geom::Segment> segs;
  for (int i = 0; i < 120; ++i) {
    const double inset = i * 0.004;
    segs.push_back(geom::Segment{inset, 1.0 - i * 0.008, 1.0 - inset,
                                 1.0 - i * 0.008,
                                 static_cast<std::uint64_t>(i)});
  }
  auto env = geom::lower_envelope(m, segs);
  Rng rng(88);
  for (int probe = 0; probe < 200; ++probe) {
    const double x = rng.next_double();
    auto [fb, ib] = geom::envelope_at_brute(segs, x);
    auto [fe, ie] = geom::envelope_at(env, x);
    ASSERT_EQ(fb, fe) << "x=" << x;
    if (fb) {
      EXPECT_EQ(ib, ie) << "x=" << x;
    }
  }
}

TEST(Adversarial, DominanceGridPattern) {
  auto m = em_machine(5);
  // A jittered grid (regular structure stresses the y-bucket balance).
  Rng rng(99);
  std::vector<geom::WPoint2> pts;
  std::uint64_t id = 0;
  for (int x = 0; x < 25; ++x) {
    for (int y = 0; y < 25; ++y) {
      pts.push_back(geom::WPoint2{x + rng.next_double() * 1e-6,
                                  y + rng.next_double() * 1e-6, 1, id++});
    }
  }
  auto got = geom::dominance_counts(m, pts);
  auto want = geom::dominance_counts_brute(pts);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].count, want[i].count) << "point " << got[i].id;
  }
}

// ----------------------------------------------------------------- graph --

TEST(Adversarial, ListRankingManyShortLists) {
  auto m = em_machine(6);
  // 64 lists of 16 nodes each in one input.
  const std::size_t n = 1024;
  std::vector<graph::ListNode> nodes(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    nodes[i] = graph::ListNode{i, (i % 16 == 15) ? graph::kNil : i + 1};
  }
  auto got = graph::list_ranking(m, nodes);
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i].rank, 15 - i % 16) << "node " << i;
  }
}

TEST(Adversarial, EulerTourCaterpillarAndBinary) {
  auto m = em_machine(6);
  // Caterpillar: a path with a leaf on each spine vertex.
  std::vector<graph::Edge> cat;
  const std::uint64_t spine = 40;
  for (std::uint64_t i = 1; i < spine; ++i) cat.push_back({i - 1, i});
  for (std::uint64_t i = 0; i < spine; ++i) cat.push_back({i, spine + i});
  auto gc = graph::euler_tour_all(m, cat, 2 * spine);
  auto wc = graph::euler_tour_seq(cat, 2 * spine);
  for (std::size_t i = 0; i < gc.size(); ++i) {
    EXPECT_EQ(gc[i].subtree, wc[i].subtree) << "vertex " << i;
    EXPECT_EQ(gc[i].depth, wc[i].depth) << "vertex " << i;
  }
  // Complete binary tree.
  std::vector<graph::Edge> bin;
  const std::uint64_t bn = 127;
  for (std::uint64_t i = 1; i < bn; ++i) bin.push_back({(i - 1) / 2, i});
  auto gb = graph::euler_tour_all(m, bin, bn);
  auto wb = graph::euler_tour_seq(bin, bn);
  for (std::size_t i = 0; i < gb.size(); ++i) {
    EXPECT_EQ(gb[i].preorder, wb[i].preorder) << "vertex " << i;
  }
}

TEST(Adversarial, LcaOnPath) {
  auto m = em_machine(5);
  // Path tree: LCA(u, v) = min(u, v); positions span many chunks.
  const std::uint64_t n = 300;
  std::vector<graph::Edge> path;
  for (std::uint64_t i = 1; i < n; ++i) path.push_back({i - 1, i});
  std::vector<graph::LcaQuery> qs;
  Rng rng(111);
  for (std::uint64_t i = 0; i < 200; ++i) {
    qs.push_back(graph::LcaQuery{rng.next_below(n), rng.next_below(n), i});
  }
  auto got = graph::lca_batch(m, path, n, qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(got[i].lca, std::min(qs[i].u, qs[i].v)) << "query " << i;
  }
}

TEST(Adversarial, ExpressionLeftDeepAndBalanced) {
  auto m = em_machine(4);
  // Left-deep comb: node structure maximizes contraction rounds.
  const std::size_t leaves = 200;
  std::vector<graph::ExprNode> comb;
  // Build: root = 0; internal spine 0..leaves-2; leaves attached right.
  // ids: internals 0..leaves-2, leaves leaves-1..2*leaves-2.
  Rng rng(13);
  const std::uint64_t internals = leaves - 1;
  for (std::uint64_t i = 0; i < internals; ++i) {
    graph::ExprNode nd;
    nd.id = i;
    nd.parent = i == 0 ? graph::kNil : i - 1;
    nd.op = (i % 2) ? 1u : 2u;
    nd.left = i + 1 == internals ? internals + i : i + 1;  // spine or leaf
    nd.right = internals + (i + 1 == internals ? i + 1 : i);
    comb.push_back(nd);
  }
  for (std::uint64_t l = 0; l < leaves; ++l) {
    graph::ExprNode nd;
    nd.id = internals + l;
    nd.op = 0;
    nd.value = rng.next();
    // parent: leaf l hangs off spine node... recover from internals above.
    comb.push_back(nd);
  }
  // Fix leaf parents from the internal children links.
  for (std::uint64_t i = 0; i < internals; ++i) {
    comb[static_cast<std::size_t>(comb[i].left)].parent = i;
    comb[static_cast<std::size_t>(comb[i].right)].parent = i;
  }
  const std::uint64_t want = graph::eval_expression(comb, 0);
  EXPECT_EQ(graph::eval_expression_cgm(m, comb, 0), want);
}

TEST(Adversarial, FileBackendGeometryPipeline) {
  // A multi-stage geometry pipeline against real files: same results as
  // the memory backend, same I/O counts.
  cgm::MachineConfig cfg;
  cfg.v = 4;
  cfg.disk.num_disks = 2;
  cfg.disk.block_bytes = 512;
  cgm::Machine mem(cgm::EngineKind::kEm, cfg);
  cfg.backend = pdm::BackendKind::kFile;
  cfg.file_dir = "/tmp/emcgm_adv_file_pipeline";
  cgm::Machine file(cgm::EngineKind::kEm, cfg);

  auto pts = geom::random_wpoints2(3, 800);
  auto a = geom::dominance_counts(mem, pts);
  auto b = geom::dominance_counts(file, pts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].count, b[i].count);
  }
  auto rects = geom::random_rects(4, 500);
  EXPECT_DOUBLE_EQ(geom::rect_union_area(mem, rects),
                   geom::rect_union_area(file, rects));
  EXPECT_EQ(cgm::run_mismatches(mem.total(), file.total()), "");
}

TEST(Adversarial, ThreadedEngineGraphPipeline) {
  cgm::MachineConfig cfg;
  cfg.v = 8;
  cfg.p = 4;
  cgm::Machine seq(cgm::EngineKind::kEm, cfg);
  cfg.use_threads = true;
  cgm::Machine thr(cgm::EngineKind::kEm, cfg);

  const std::uint64_t n = 400;
  auto edges = graph::random_tree(17, n);
  auto a = graph::euler_tour_all(seq, edges, n);
  auto b = graph::euler_tour_all(thr, edges, n);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].preorder, b[i].preorder);
    EXPECT_EQ(a[i].subtree, b[i].subtree);
  }
  EXPECT_EQ(cgm::run_mismatches(seq.total(), thr.total()), "");
}

TEST(Adversarial, EmEngineManyTinyRuns) {
  // Repeated runs on one machine must keep accumulating clean statistics
  // (regions are re-created per run; track space only grows).
  auto m = em_machine(4);
  std::uint64_t last_ops = 0;
  for (int r = 0; r < 10; ++r) {
    auto keys = random_keys(r, 256);
    auto expect = keys;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(algo::sort_keys(m, keys), expect) << "run " << r;
    const auto ops = m.total().io.total_ops();
    EXPECT_GT(ops, last_ops);
    last_ops = ops;
  }
}
