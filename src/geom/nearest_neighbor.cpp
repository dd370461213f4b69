#include "geom/nearest_neighbor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "algo/primitives.h"
#include "algo/sort.h"

namespace emcgm::geom {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double dist2(const Point2& a, const Point2& b) {
  const double dx = a.x - b.x, dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// Prefer the smaller (distance, id) pair so ties resolve deterministically.
bool better(double d2, std::uint64_t id, double best_d2,
            std::uint64_t best_id) {
  return d2 < best_d2 || (d2 == best_d2 && id < best_id);
}

/// Best neighbor of q among pts (x-ascending), excluding the point with
/// q's own id; scans outward from q.x and prunes once dx^2 exceeds best.
void scan_candidates(const std::vector<Point2>& pts, const Point2& q,
                     double& best_d2, std::uint64_t& best_id) {
  auto ge = std::lower_bound(
      pts.begin(), pts.end(), q.x,
      [](const Point2& p, double x) { return p.x < x; });
  const auto idx = static_cast<std::ptrdiff_t>(ge - pts.begin());
  for (std::ptrdiff_t i = idx; i < static_cast<std::ptrdiff_t>(pts.size());
       ++i) {
    const double dx = pts[i].x - q.x;
    if (dx * dx > best_d2) break;
    if (pts[i].id == q.id) continue;
    const double d = dist2(pts[i], q);
    if (better(d, pts[i].id, best_d2, best_id)) {
      best_d2 = d;
      best_id = pts[i].id;
    }
  }
  for (std::ptrdiff_t i = idx - 1; i >= 0; --i) {
    const double dx = q.x - pts[i].x;
    if (dx * dx > best_d2) break;
    if (pts[i].id == q.id) continue;
    const double d = dist2(pts[i], q);
    if (better(d, pts[i].id, best_d2, best_id)) {
      best_d2 = d;
      best_id = pts[i].id;
    }
  }
}

struct Query {
  double x, y;
  double best_d2;
  std::uint64_t id;         ///< point id (used to skip self at the remote)
  std::uint32_t src;        ///< owning processor
  std::uint32_t local_idx;  ///< index within the owner's partition
};

struct Reply {
  std::uint32_t local_idx;
  std::uint32_t pad = 0;
  double d2;
  std::uint64_t nn_id;
};

struct Range {
  double lo, hi;
};

struct NNState {
  std::uint32_t phase = 0;
  std::vector<Point2> pts;   // x-ascending
  std::vector<double> d2;    // current best squared distance per point
  std::vector<std::uint64_t> nn;  // current best neighbor id per point

  auto fields() { return std::tie(phase, pts, d2, nn); }
};

class NNProgram final : public cgm::ProgramT<NNState> {
 public:
  std::string name() const override { return "all_nearest_neighbors"; }

  void round(cgm::ProcCtx& ctx, NNState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    switch (st.phase) {
      case 0: {  // local all-NN; all-gather slab x-ranges
        st.pts = ctx.input_items<Point2>(0);
        st.d2.assign(st.pts.size(), kInf);
        st.nn.assign(st.pts.size(), 0);
        for (std::size_t i = 0; i < st.pts.size(); ++i) {
          scan_candidates(st.pts, st.pts[i], st.d2[i], st.nn[i]);
        }
        Range r{st.pts.empty() ? kInf : st.pts.front().x,
                st.pts.empty() ? -kInf : st.pts.back().x};
        prim::send_all(ctx, std::vector<Range>{r});
        break;
      }
      case 1: {  // boundary queries to every slab within reach
        auto by_src = prim::recv_by_src<Range>(ctx);
        std::vector<std::vector<Query>> out(v);
        for (std::size_t i = 0; i < st.pts.size(); ++i) {
          const Point2& p = st.pts[i];
          const double d = std::sqrt(st.d2[i]);
          for (std::uint32_t s = 0; s < v; ++s) {
            if (s == ctx.pid() || by_src[s].empty()) continue;
            const Range& r = by_src[s][0];
            if (r.lo > r.hi) continue;  // empty slab
            if (r.hi < p.x - d || r.lo > p.x + d) continue;
            out[s].push_back(Query{p.x, p.y, st.d2[i], p.id, ctx.pid(),
                                   static_cast<std::uint32_t>(i)});
          }
        }
        for (std::uint32_t s = 0; s < v; ++s) ctx.send_vec(s, out[s]);
        break;
      }
      case 2: {  // answer remote queries with the best local candidate
        std::vector<std::vector<Reply>> out(v);
        for (const auto& q : ctx.recv_concat<Query>()) {
          Point2 qp{q.x, q.y, q.id};
          // Scan with the incoming bound: only candidates at least as
          // good as the sender's current best are reported; the owner
          // re-applies the (distance, id) tie-break when combining.
          double best = q.best_d2;
          std::uint64_t nn = std::numeric_limits<std::uint64_t>::max();
          scan_candidates(st.pts, qp, best, nn);
          if (nn != std::numeric_limits<std::uint64_t>::max()) {
            out[q.src].push_back(Reply{q.local_idx, 0, best, nn});
          }
        }
        for (std::uint32_t s = 0; s < v; ++s) ctx.send_vec(s, out[s]);
        break;
      }
      case 3: {  // combine
        for (const auto& r : ctx.recv_concat<Reply>()) {
          if (better(r.d2, r.nn_id, st.d2[r.local_idx],
                     st.nn[r.local_idx])) {
            st.d2[r.local_idx] = r.d2;
            st.nn[r.local_idx] = r.nn_id;
          }
        }
        std::vector<NNResult> res(st.pts.size());
        for (std::size_t i = 0; i < st.pts.size(); ++i) {
          EMCGM_CHECK_MSG(st.d2[i] < kInf,
                          "isolated point: all_nearest_neighbors needs"
                          " at least 2 points");
          res[i] = NNResult{st.pts[i].id, st.nn[i], st.d2[i]};
        }
        ctx.set_output(res, 0);
        break;
      }
      default:
        EMCGM_CHECK_MSG(false, "all_nearest_neighbors ran past final round");
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const NNState& st) const override {
    return st.phase >= 4;
  }
};

struct ByX {
  bool operator()(const Point2& a, const Point2& b) const { return a.x < b.x; }
};

}  // namespace

cgm::DistVec<NNResult> all_nearest_neighbors(cgm::Machine& m,
                                             cgm::DistVec<Point2> points) {
  EMCGM_CHECK_MSG(points.total >= 2, "need at least 2 points");
  auto sorted = algo::sample_sort<Point2, ByX>(m, std::move(points));
  NNProgram prog;
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(sorted.set));
  auto outs = m.run(prog, std::move(inputs));
  return cgm::Machine::as_dist<NNResult>(std::move(outs.at(0)));
}

std::vector<NNResult> all_nearest_neighbors(
    cgm::Machine& m, const std::vector<Point2>& points) {
  auto dv = m.scatter<Point2>(points);
  auto res = m.gather(all_nearest_neighbors(m, std::move(dv)));
  std::sort(res.begin(), res.end(),
            [](const NNResult& a, const NNResult& b) { return a.id < b.id; });
  return res;
}

std::vector<NNResult> all_nearest_neighbors_brute(
    const std::vector<Point2>& points) {
  std::vector<NNResult> res;
  res.reserve(points.size());
  for (const auto& p : points) {
    double best = kInf;
    std::uint64_t best_id = 0;
    for (const auto& q : points) {
      if (q.id == p.id) continue;
      const double d = dist2(p, q);
      if (better(d, q.id, best, best_id)) {
        best = d;
        best_id = q.id;
      }
    }
    res.push_back(NNResult{p.id, best_id, best});
  }
  std::sort(res.begin(), res.end(),
            [](const NNResult& a, const NNResult& b) { return a.id < b.id; });
  return res;
}

}  // namespace emcgm::geom
