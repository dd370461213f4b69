#include "geom/lower_envelope.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "algo/primitives.h"

namespace emcgm::geom {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double y_at(const Segment& s, double x) {
  if (s.x2 == s.x1) return std::min(s.y1, s.y2);
  const double t = (x - s.x1) / (s.x2 - s.x1);
  return s.y1 + t * (s.y2 - s.y1);
}

/// Sweep the clipped segment set over [lo, hi); emit maximal lowest pieces.
/// Active segments are kept in a set ordered by y at the current sweep x —
/// consistent because co-active non-crossing segments never change order.
std::vector<EnvPiece> slab_envelope(const std::vector<Segment>& segs,
                                    double lo, double hi) {
  struct Event {
    double x;
    int kind;  // 0 = insert, 1 = erase (erase first at equal x)
    std::size_t seg;
  };
  std::vector<Event> events;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const double a = std::max(segs[i].x1, lo), b = std::min(segs[i].x2, hi);
    if (a >= b) continue;
    events.push_back(Event{a, 0, i});
    events.push_back(Event{b, 1, i});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& e, const Event& f) {
              if (e.x != f.x) return e.x < f.x;
              return e.kind > f.kind;  // erase before insert at equal x
            });

  double sweep_x = lo;
  auto cmp = [&](std::size_t a, std::size_t b) {
    const double ya = y_at(segs[a], sweep_x), yb = y_at(segs[b], sweep_x);
    if (ya != yb) return ya < yb;
    return segs[a].id < segs[b].id;
  };
  std::set<std::size_t, decltype(cmp)> active(cmp);
  std::map<std::size_t, std::set<std::size_t, decltype(cmp)>::iterator>
      handles;

  std::vector<EnvPiece> pieces;
  auto record = [&](double x1, double x2) {
    if (x1 >= x2 || active.empty()) return;
    const std::uint64_t id = segs[*active.begin()].id;
    if (!pieces.empty() && pieces.back().id == id &&
        pieces.back().x2 == x1) {
      pieces.back().x2 = x2;
    } else {
      pieces.push_back(EnvPiece{x1, x2, id});
    }
  };

  std::size_t e = 0;
  while (e < events.size()) {
    const double x = events[e].x;
    record(sweep_x, x);
    sweep_x = x;
    while (e < events.size() && events[e].x == x) {
      if (events[e].kind == 1) {
        auto h = handles.find(events[e].seg);
        EMCGM_ASSERT(h != handles.end());
        active.erase(h->second);
        handles.erase(h);
      } else {
        auto [it, fresh] = active.insert(events[e].seg);
        EMCGM_ASSERT(fresh);
        handles.emplace(events[e].seg, it);
      }
      ++e;
    }
  }
  EMCGM_ASSERT(active.empty());
  return pieces;
}

struct LEState {
  std::uint32_t phase = 0;
  std::vector<Segment> segs;
  std::vector<double> splitters;

  auto fields() { return std::tie(phase, segs, splitters); }
};

class EnvelopeProgram final : public cgm::ProgramT<LEState> {
 public:
  std::string name() const override { return "lower_envelope"; }

  void round(cgm::ProcCtx& ctx, LEState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    switch (st.phase) {
      case 0: {  // endpoint x-samples to processor 0
        st.segs = ctx.input_items<Segment>(0);
        std::vector<double> xs;
        for (const auto& s : st.segs) {
          xs.push_back(s.x1);
          xs.push_back(s.x2);
        }
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
      case 2: {  // route segments to the slabs they overlap
        st.splitters = ctx.recv_from<double>(0);
        const auto by_slab = prim::split_by_slab(st.segs, st.splitters, v);
        for (std::uint32_t k = 0; k < v; ++k) ctx.send_vec(k, by_slab[k]);
        st.segs.clear();
        break;
      }
      case 3: {  // sweep inside the slab; pieces are the distributed output
        const auto [lo, hi] = prim::slab(st.splitters, ctx.pid(), v);
        ctx.set_output(slab_envelope(ctx.recv_concat<Segment>(), lo, hi), 0);
        break;
      }
      default:
        EMCGM_CHECK_MSG(false, "lower_envelope ran past its final round");
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const LEState& st) const override {
    return st.phase >= 4;
  }
};

}  // namespace

std::vector<EnvPiece> lower_envelope(cgm::Machine& m,
                                     const std::vector<Segment>& segs) {
  auto dv = m.scatter<Segment>(segs);
  EnvelopeProgram prog;
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(dv.set));
  auto outs = m.run(prog, std::move(inputs));
  auto pieces =
      m.gather(cgm::Machine::as_dist<EnvPiece>(std::move(outs.at(0))));
  // Stitch pieces that continue across slab boundaries.
  std::vector<EnvPiece> env;
  for (const auto& p : pieces) {
    if (!env.empty() && env.back().id == p.id && env.back().x2 == p.x1) {
      env.back().x2 = p.x2;
    } else {
      env.push_back(p);
    }
  }
  return env;
}

std::pair<bool, std::uint64_t> envelope_at_brute(
    const std::vector<Segment>& segs, double x) {
  bool found = false;
  double best_y = kInf;
  std::uint64_t best_id = 0;
  for (const auto& s : segs) {
    if (x < s.x1 || x >= s.x2) continue;
    const double y = y_at(s, x);
    if (!found || y < best_y || (y == best_y && s.id < best_id)) {
      found = true;
      best_y = y;
      best_id = s.id;
    }
  }
  return {found, best_id};
}

std::pair<bool, std::uint64_t> envelope_at(const std::vector<EnvPiece>& env,
                                           double x) {
  for (const auto& p : env) {
    if (x >= p.x1 && x < p.x2) return {true, p.id};
  }
  return {false, 0};
}

}  // namespace emcgm::geom
