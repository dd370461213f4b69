#include "geom/next_element.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "algo/primitives.h"

namespace emcgm::geom {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double seg_y_at(const Segment& s, double x) {
  if (s.x2 == s.x1) return std::min(s.y1, s.y2);
  const double t = (x - s.x1) / (s.x2 - s.x1);
  return s.y1 + t * (s.y2 - s.y1);
}

/// Record routed to slabs: a clipped segment or a query point.
struct NRec {
  std::uint32_t kind;  // 0 = segment, 1 = query
  std::uint32_t src;   // owner of the query (unused for segments)
  double a, b, c, d;   // segment: x1,y1,x2,y2; query: x,y,-,-
  std::uint64_t id;    // segment id / query id
};

/// Sweep one slab: answer each query with the segment directly below it.
std::vector<BelowResult> slab_answers(const std::vector<Segment>& segs,
                                      const std::vector<NRec>& queries,
                                      double lo, double hi) {
  struct Event {
    double x;
    int kind;  // 0 = insert, 1 = query, 2 = erase
    std::size_t idx;
  };
  std::vector<Event> events;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const double a = std::max(segs[i].x1, lo), b = std::min(segs[i].x2, hi);
    if (a > b) continue;
    events.push_back(Event{a, 0, i});
    events.push_back(Event{b, 2, i});
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    events.push_back(Event{queries[q].a, 1, q});
  }
  // Segments cover closed x-ranges: at equal x, insert before the queries
  // and erase after them, so a query sitting exactly on an endpoint x sees
  // the segment active (matching the closed-range reference).
  std::sort(events.begin(), events.end(), [](const Event& e, const Event& f) {
    if (e.x != f.x) return e.x < f.x;
    return e.kind < f.kind;
  });

  double sweep_x = lo;
  double query_y = 0;  // the virtual element used by lookups
  const std::size_t kQueryIdx = segs.size();
  auto y_of = [&](std::size_t i) {
    return i == kQueryIdx ? query_y : seg_y_at(segs[i], sweep_x);
  };
  auto cmp = [&](std::size_t a, std::size_t b) {
    const double ya = y_of(a), yb = y_of(b);
    if (ya != yb) return ya < yb;
    // The query sorts BEFORE equal-y segments so that a segment passing
    // exactly through the query point is never reported as "below" it.
    if (a == kQueryIdx || b == kQueryIdx) return a == kQueryIdx;
    return segs[a].id < segs[b].id;
  };
  std::set<std::size_t, decltype(cmp)> active(cmp);
  std::map<std::size_t, std::set<std::size_t, decltype(cmp)>::iterator>
      handles;

  std::vector<BelowResult> out;
  out.reserve(queries.size());
  for (const auto& e : events) {
    sweep_x = e.x;
    if (e.kind == 0) {
      auto [it, fresh] = active.insert(e.idx);
      EMCGM_ASSERT(fresh);
      handles.emplace(e.idx, it);
    } else if (e.kind == 2) {
      auto h = handles.find(e.idx);
      EMCGM_ASSERT(h != handles.end());
      active.erase(h->second);
      handles.erase(h);
    } else {
      const NRec& q = queries[e.idx];
      query_y = q.b;
      // First active segment with y >= query_y; its predecessor is the
      // segment strictly below (the query orders after equal-y segments,
      // so a segment through the query point is skipped).
      auto it = active.lower_bound(kQueryIdx);
      BelowResult r{q.id, kNoSegment};
      if (it != active.begin()) {
        r.segment_id = segs[*std::prev(it)].id;
      }
      out.push_back(r);
    }
  }
  return out;
}

struct NEState {
  std::uint32_t phase = 0;
  std::vector<Segment> segs;
  std::vector<Point2> queries;
  std::vector<double> splitters;

  auto fields() { return std::tie(phase, segs, queries, splitters); }
};

class NextElementProgram final : public cgm::ProgramT<NEState> {
 public:
  std::string name() const override { return "next_element_search"; }

  void round(cgm::ProcCtx& ctx, NEState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    switch (st.phase) {
      case 0: {  // sample xs (segment endpoints + query xs) to processor 0
        st.segs = ctx.input_items<Segment>(0);
        st.queries = ctx.input_items<Point2>(1);
        std::vector<double> xs;
        for (const auto& s : st.segs) {
          xs.push_back(s.x1);
          xs.push_back(s.x2);
        }
        for (const auto& q : st.queries) xs.push_back(q.x);
        std::sort(xs.begin(), xs.end());
        ctx.send_vec(0, prim::regular_samples(xs, v));
        break;
      }
      case 1: {  // broadcast slab boundaries
        if (ctx.pid() == 0) {
          prim::send_all(ctx,
                         prim::pick_splitters(ctx.recv_concat<double>(), v));
        }
        break;
      }
      case 2: {  // route segments to all overlapping slabs, queries to one
        st.splitters = ctx.recv_from<double>(0);
        std::vector<std::vector<NRec>> by_slab(v);
        for (const auto& s : st.segs) {
          const auto first = static_cast<std::uint32_t>(
              std::upper_bound(st.splitters.begin(), st.splitters.end(),
                               s.x1) -
              st.splitters.begin());
          // Closed right end: a slab whose range starts exactly at x2 must
          // still see the segment (queries can sit at x == x2).
          const auto last = static_cast<std::uint32_t>(
              std::upper_bound(st.splitters.begin(), st.splitters.end(),
                               s.x2) -
              st.splitters.begin());
          for (std::uint32_t k = first; k <= last && k < v; ++k) {
            by_slab[k].push_back(
                NRec{0, 0, s.x1, s.y1, s.x2, s.y2, s.id});
          }
        }
        for (const auto& q : st.queries) {
          const auto k = static_cast<std::uint32_t>(
              std::upper_bound(st.splitters.begin(), st.splitters.end(),
                               q.x) -
              st.splitters.begin());
          by_slab[std::min(k, v - 1)].push_back(
              NRec{1, ctx.pid(), q.x, q.y, 0, 0, q.id});
        }
        for (std::uint32_t k = 0; k < v; ++k) ctx.send_vec(k, by_slab[k]);
        st.segs.clear();
        st.queries.clear();
        break;
      }
      case 3: {  // sweep; answers are this slab's output
        std::vector<Segment> segs;
        std::vector<NRec> queries;
        for (const auto& r : ctx.recv_concat<NRec>()) {
          if (r.kind == 0) {
            segs.push_back(Segment{r.a, r.b, r.c, r.d, r.id});
          } else {
            queries.push_back(r);
          }
        }
        const auto [lo, hi] = prim::slab(st.splitters, ctx.pid(), v);
        ctx.set_output(slab_answers(segs, queries, lo, hi), 0);
        break;
      }
      default:
        EMCGM_CHECK_MSG(false, "next_element_search ran past final round");
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const NEState& st) const override {
    return st.phase >= 4;
  }
};

}  // namespace

std::vector<BelowResult> segment_below_points(
    cgm::Machine& m, const std::vector<Segment>& segments,
    const std::vector<Point2>& queries) {
  NextElementProgram prog;
  auto ds = m.scatter<Segment>(segments);
  auto dq = m.scatter<Point2>(queries);
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(ds.set));
  inputs.push_back(std::move(dq.set));
  auto outs = m.run(prog, std::move(inputs));
  auto res = m.gather(cgm::Machine::as_dist<BelowResult>(std::move(outs.at(0))));
  std::sort(res.begin(), res.end(),
            [](const BelowResult& a, const BelowResult& b) {
              return a.query_id < b.query_id;
            });
  return res;
}

std::vector<BelowResult> next_element_below(
    cgm::Machine& m, const std::vector<Segment>& segments) {
  std::vector<Point2> queries;
  queries.reserve(segments.size());
  for (const auto& s : segments) {
    queries.push_back(Point2{s.x1, s.y1, s.id});
  }
  return segment_below_points(m, segments, queries);
}

std::vector<TrapNeighbors> trapezoidal_neighbors(
    cgm::Machine& m, const std::vector<Segment>& segments) {
  const std::size_t n = segments.size();
  // Queries 0..n-1 = left endpoints, n..2n-1 = right endpoints.
  std::vector<Point2> qs;
  qs.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    qs.push_back(Point2{segments[i].x1, segments[i].y1, i});
  }
  for (std::size_t i = 0; i < n; ++i) {
    qs.push_back(Point2{segments[i].x2, segments[i].y2, n + i});
  }
  auto below = segment_below_points(m, segments, qs);

  // "Above" = "below" in the y-mirrored scene.
  std::vector<Segment> mirrored(segments);
  for (auto& s : mirrored) {
    s.y1 = -s.y1;
    s.y2 = -s.y2;
  }
  std::vector<Point2> mqs(qs);
  for (auto& q : mqs) q.y = -q.y;
  auto above = segment_below_points(m, mirrored, mqs);

  std::vector<TrapNeighbors> res(n);
  for (std::size_t i = 0; i < n; ++i) {
    res[i].segment_id = segments[i].id;
    res[i].below_left = below[i].segment_id;
    res[i].below_right = below[n + i].segment_id;
    res[i].above_left = above[i].segment_id;
    res[i].above_right = above[n + i].segment_id;
  }
  std::sort(res.begin(), res.end(),
            [](const TrapNeighbors& a, const TrapNeighbors& b) {
              return a.segment_id < b.segment_id;
            });
  return res;
}

std::vector<BelowResult> segment_below_points_brute(
    const std::vector<Segment>& segments,
    const std::vector<Point2>& queries) {
  std::vector<BelowResult> res;
  res.reserve(queries.size());
  for (const auto& q : queries) {
    BelowResult r{q.id, kNoSegment};
    double best = -kInf;
    for (const auto& s : segments) {
      if (q.x < s.x1 || q.x > s.x2) continue;
      const double y = seg_y_at(s, q.x);
      if (y < q.y && y > best) {
        best = y;
        r.segment_id = s.id;
      }
    }
    res.push_back(r);
  }
  std::sort(res.begin(), res.end(),
            [](const BelowResult& a, const BelowResult& b) {
              return a.query_id < b.query_id;
            });
  return res;
}

}  // namespace emcgm::geom
