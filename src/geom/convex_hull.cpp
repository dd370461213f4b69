#include "geom/convex_hull.h"

#include <algorithm>

#include "algo/sort.h"

namespace emcgm::geom {

namespace {

double cross(const Point2& o, const Point2& a, const Point2& b) {
  return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x);
}

bool lex_less(const Point2& a, const Point2& b) {
  if (a.x != b.x) return a.x < b.x;
  return a.y < b.y;
}

bool same_pos(const Point2& a, const Point2& b) {
  return a.x == b.x && a.y == b.y;
}

/// Monotone chain over lexicographically sorted, deduplicated points.
std::vector<Point2> chain_hull(const std::vector<Point2>& pts) {
  const std::size_t n = pts.size();
  if (n <= 2) return pts;
  std::vector<Point2> hull(2 * n);
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {  // lower
    while (k >= 2 && cross(hull[k - 2], hull[k - 1], pts[i]) <= 0) --k;
    hull[k++] = pts[i];
  }
  const std::size_t lower = k + 1;
  for (std::size_t i = n - 1; i-- > 0;) {  // upper
    while (k >= lower && cross(hull[k - 2], hull[k - 1], pts[i]) <= 0) --k;
    hull[k++] = pts[i];
  }
  hull.resize(k - 1);  // last point equals the first
  return hull;
}

std::vector<Point2> sort_dedup(std::vector<Point2> pts) {
  std::sort(pts.begin(), pts.end(), lex_less);
  pts.erase(std::unique(pts.begin(), pts.end(), same_pos), pts.end());
  return pts;
}

struct HullState {
  std::uint32_t phase = 0;
  auto fields() { return std::tie(phase); }
};

class HullProgram final : public cgm::ProgramT<HullState> {
 public:
  std::string name() const override { return "convex_hull"; }

  void round(cgm::ProcCtx& ctx, HullState& st) const override {
    switch (st.phase) {
      case 0: {  // local slab hull (input arrives (x,y)-sorted)
        auto pts = ctx.input_items<Point2>(0);
        pts.erase(std::unique(pts.begin(), pts.end(), same_pos), pts.end());
        ctx.send_vec(0, chain_hull(pts));
        break;
      }
      case 1: {  // processor 0 merges the slab hulls
        if (ctx.pid() == 0) {
          // Slab hulls arrive in slab (= x) order; their concatenation is
          // lexicographically sorted except at slab boundaries where a
          // shared x column may interleave — a cheap merge restores order.
          auto pts = ctx.recv_concat<Point2>();
          ctx.set_output(chain_hull(sort_dedup(std::move(pts))), 0);
        } else {
          ctx.set_output(std::vector<Point2>{}, 0);
        }
        break;
      }
      default:
        EMCGM_CHECK_MSG(false, "convex_hull ran past its final round");
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const HullState& st) const override {
    return st.phase >= 2;
  }
};

struct LexLess {
  bool operator()(const Point2& a, const Point2& b) const {
    return lex_less(a, b);
  }
};

}  // namespace

std::vector<Point2> convex_hull(cgm::Machine& m,
                                const std::vector<Point2>& points) {
  EMCGM_CHECK(!points.empty());
  auto sorted = algo::sample_sort<Point2, LexLess>(
      m, m.scatter<Point2>(points));
  HullProgram prog;
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(sorted.set));
  auto outs = m.run(prog, std::move(inputs));
  return m.gather(cgm::Machine::as_dist<Point2>(std::move(outs.at(0))));
}

std::vector<Point2> convex_hull_seq(std::vector<Point2> points) {
  return chain_hull(sort_dedup(std::move(points)));
}

}  // namespace emcgm::geom
