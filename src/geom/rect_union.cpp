#include "geom/rect_union.h"

#include <algorithm>
#include <limits>

#include "algo/primitives.h"

namespace emcgm::geom {

namespace {

/// Measure tree: segment tree over compressed y-coordinates maintaining the
/// total length covered by at least one interval (Bentley's sweep).
class MeasureTree {
 public:
  explicit MeasureTree(std::vector<double> ys) : ys_(std::move(ys)) {
    std::sort(ys_.begin(), ys_.end());
    ys_.erase(std::unique(ys_.begin(), ys_.end()), ys_.end());
    const std::size_t n = ys_.size() > 1 ? ys_.size() - 1 : 0;
    cover_.assign(4 * (n ? n : 1), 0);
    len_.assign(4 * (n ? n : 1), 0.0);
    n_ = n;
  }

  /// Add delta (+1/-1) cover count over [y1, y2).
  void update(double y1, double y2, int delta) {
    if (n_ == 0 || y1 >= y2) return;
    const std::size_t l = index_of(y1), r = index_of(y2);
    if (l < r) update(1, 0, n_, l, r, delta);
  }

  double covered() const { return n_ ? len_[1] : 0.0; }

 private:
  std::size_t index_of(double y) const {
    return static_cast<std::size_t>(
        std::lower_bound(ys_.begin(), ys_.end(), y) - ys_.begin());
  }

  void update(std::size_t node, std::size_t lo, std::size_t hi,
              std::size_t l, std::size_t r, int delta) {
    if (r <= lo || hi <= l) return;
    if (l <= lo && hi <= r) {
      cover_[node] += delta;
    } else {
      const std::size_t mid = (lo + hi) / 2;
      update(2 * node, lo, mid, l, r, delta);
      update(2 * node + 1, mid, hi, l, r, delta);
    }
    if (cover_[node] > 0) {
      len_[node] = ys_[hi] - ys_[lo];
    } else if (hi - lo == 1) {
      len_[node] = 0.0;
    } else {
      len_[node] = len_[2 * node] + len_[2 * node + 1];
    }
  }

  std::vector<double> ys_;
  std::vector<int> cover_;
  std::vector<double> len_;
  std::size_t n_ = 0;
};

/// Sweep a set of rectangles clipped to [lo, hi); exact area inside the slab.
double slab_area(std::vector<Rect> rects, double lo, double hi) {
  struct Event {
    double x;
    double y1, y2;
    int delta;
  };
  std::vector<Event> events;
  std::vector<double> ys;
  events.reserve(rects.size() * 2);
  for (const auto& r : rects) {
    const double x1 = std::max(r.x1, lo), x2 = std::min(r.x2, hi);
    if (x1 >= x2) continue;
    events.push_back(Event{x1, r.y1, r.y2, +1});
    events.push_back(Event{x2, r.y1, r.y2, -1});
    ys.push_back(r.y1);
    ys.push_back(r.y2);
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.x < b.x; });
  MeasureTree tree(std::move(ys));
  double area = 0.0, last_x = lo;
  for (const auto& e : events) {
    // Guard the first gap: covered == 0 times an infinite slab edge would
    // otherwise produce 0 * inf = NaN.
    const double c = tree.covered();
    if (c > 0.0) area += c * (e.x - last_x);
    tree.update(e.y1, e.y2, e.delta);
    last_x = e.x;
  }
  return area;
}

struct RUState {
  std::uint32_t phase = 0;
  std::vector<Rect> rects;
  std::vector<double> splitters;

  auto fields() { return std::tie(phase, rects, splitters); }
};

class RectUnionProgram final : public cgm::ProgramT<RUState> {
 public:
  std::string name() const override { return "rect_union_area"; }

  void round(cgm::ProcCtx& ctx, RUState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    switch (st.phase) {
      case 0: {  // regular samples of x-event coordinates to processor 0
        st.rects = ctx.input_items<Rect>(0);
        std::vector<double> xs;
        xs.reserve(st.rects.size() * 2);
        for (const auto& r : st.rects) {
          xs.push_back(r.x1);
          xs.push_back(r.x2);
        }
        std::sort(xs.begin(), xs.end());
        ctx.send_vec(0, prim::regular_samples(xs, v));
        break;
      }
      case 1: {  // processor 0 broadcasts slab boundaries
        if (ctx.pid() == 0) {
          prim::send_all(ctx,
                         prim::pick_splitters(ctx.recv_concat<double>(), v));
        }
        break;
      }
      case 2: {  // route each rectangle to every slab it overlaps
        st.splitters = ctx.recv_from<double>(0);
        const auto by_slab = prim::split_by_slab(st.rects, st.splitters, v);
        for (std::uint32_t s = 0; s < v; ++s) ctx.send_vec(s, by_slab[s]);
        st.rects.clear();
        break;
      }
      case 3: {  // sweep inside the slab; partial area to processor 0
        const auto [lo, hi] = prim::slab(st.splitters, ctx.pid(), v);
        const double area = slab_area(ctx.recv_concat<Rect>(), lo, hi);
        ctx.send_vec(0, std::vector<double>{area});
        break;
      }
      case 4: {  // processor 0 sums
        if (ctx.pid() == 0) {
          double total = 0.0;
          for (double a : ctx.recv_concat<double>()) total += a;
          ctx.set_output(std::vector<double>{total}, 0);
        } else {
          ctx.set_output(std::vector<double>{}, 0);
        }
        break;
      }
      default:
        EMCGM_CHECK_MSG(false, "rect_union_area ran past its final round");
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const RUState& st) const override {
    return st.phase >= 5;
  }
};

}  // namespace

double rect_union_area(cgm::Machine& m, const std::vector<Rect>& rects) {
  auto dv = m.scatter<Rect>(rects);
  RectUnionProgram prog;
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(dv.set));
  auto outs = m.run(prog, std::move(inputs));
  auto res = m.gather(cgm::Machine::as_dist<double>(std::move(outs.at(0))));
  EMCGM_CHECK(res.size() == 1);
  return res[0];
}

double rect_union_area_brute(const std::vector<Rect>& rects) {
  return slab_area(rects, -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::infinity());
}

}  // namespace emcgm::geom
