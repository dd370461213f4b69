#include "geom/dominance.h"

#include <algorithm>

#include "algo/primitives.h"
#include "algo/sort.h"
#include "util/fenwick.h"

namespace emcgm::geom {

namespace {

/// Mixed record routed to bucket owners: a data point (kind 0, aux =
/// weight) or a query (kind 1, aux = sender-local point index).
struct BEntry {
  double y;
  std::uint64_t aux;
  std::uint32_t src;
  std::uint32_t kind;
};

struct Answer {
  std::uint64_t idx;      ///< sender-local point index
  std::uint64_t partial;  ///< same-bucket, earlier-processor weight
};

struct DomState {
  std::uint32_t phase = 0;
  std::vector<WPoint2> points;        // local points, x-ascending
  std::vector<double> splitters;      // v-1 y-splitters
  std::vector<std::uint64_t> local;   // same-processor contribution
  std::vector<std::uint64_t> fullb;   // earlier-proc, lower-bucket weight
  std::vector<std::uint32_t> bucket;  // y-bucket of each local point

  auto fields() {
    return std::tie(phase, points, splitters, local, fullb, bucket);
  }
};

class DominanceProgram final : public cgm::ProgramT<DomState> {
 public:
  std::string name() const override { return "dominance_counts"; }

  void round(cgm::ProcCtx& ctx, DomState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    switch (st.phase) {
      case 0: {  // absorb; regular y-samples to processor 0
        st.points = ctx.input_items<WPoint2>(0);
        std::vector<double> ys;
        ys.reserve(st.points.size());
        for (const auto& p : st.points) ys.push_back(p.y);
        std::sort(ys.begin(), ys.end());
        ctx.send_vec(0, prim::regular_samples(ys, v));
        break;
      }
      case 1: {  // processor 0 broadcasts y-splitters
        if (ctx.pid() == 0) {
          prim::send_all(ctx,
                         prim::pick_splitters(ctx.recv_concat<double>(), v));
        }
        break;
      }
      case 2: {  // per-bucket weight histogram, all-gathered
        st.splitters = ctx.recv_from<double>(0);
        std::vector<std::uint64_t> hist(v, 0);
        st.bucket.resize(st.points.size());
        for (std::size_t i = 0; i < st.points.size(); ++i) {
          const auto b = static_cast<std::uint32_t>(
              std::upper_bound(st.splitters.begin(), st.splitters.end(),
                               st.points[i].y) -
              st.splitters.begin());
          st.bucket[i] = b;
          hist[b] += st.points[i].w;
        }
        prim::send_all(ctx, hist);

        // Same-processor contribution: a local Fenwick sweep in x order
        // over compressed local y.
        std::vector<double> ys;
        ys.reserve(st.points.size());
        for (const auto& p : st.points) ys.push_back(p.y);
        std::sort(ys.begin(), ys.end());
        Fenwick fw(st.points.size() + 1);
        st.local.assign(st.points.size(), 0);
        for (std::size_t i = 0; i < st.points.size(); ++i) {
          const auto r = static_cast<std::size_t>(
              std::lower_bound(ys.begin(), ys.end(), st.points[i].y) -
              ys.begin());
          st.local[i] = fw.prefix(r);  // strictly smaller local y, earlier x
          fw.add(r, st.points[i].w);
        }
        break;
      }
      case 3: {  // lookup tables; route points and queries to bucket owners
        auto hists = prim::recv_by_src<std::uint64_t>(ctx);
        // fullb[b] = weight of earlier processors' points in buckets < b.
        st.fullb.assign(v, 0);
        for (std::uint32_t s = 0; s < ctx.pid(); ++s) {
          if (hists[s].empty()) continue;
          std::uint64_t acc = 0;
          for (std::uint32_t b = 0; b + 1 < v; ++b) {
            acc += hists[s][b];
            st.fullb[b + 1] += acc;
          }
        }
        std::vector<std::vector<BEntry>> by_owner(v);
        for (std::size_t i = 0; i < st.points.size(); ++i) {
          const std::uint32_t b = st.bucket[i];
          by_owner[b].push_back(
              BEntry{st.points[i].y, st.points[i].w, ctx.pid(), 0});
          by_owner[b].push_back(BEntry{st.points[i].y, i, ctx.pid(), 1});
        }
        for (std::uint32_t b = 0; b < v; ++b) ctx.send_vec(b, by_owner[b]);
        break;
      }
      case 4: {  // bucket owner: same-bucket, earlier-processor sweep
        auto recs = ctx.recv_concat<BEntry>();
        std::vector<BEntry> pts, qs;
        for (const auto& r : recs) (r.kind == 0 ? pts : qs).push_back(r);
        std::sort(pts.begin(), pts.end(),
                  [](const BEntry& a, const BEntry& b) { return a.y < b.y; });
        std::sort(qs.begin(), qs.end(),
                  [](const BEntry& a, const BEntry& b) { return a.y < b.y; });
        Fenwick by_src(v);
        std::vector<std::vector<Answer>> out(v);
        std::size_t next = 0;
        for (const auto& q : qs) {
          while (next < pts.size() && pts[next].y < q.y) {
            by_src.add(pts[next].src, pts[next].aux);
            ++next;
          }
          out[q.src].push_back(Answer{q.aux, by_src.prefix(q.src)});
        }
        for (std::uint32_t s = 0; s < v; ++s) ctx.send_vec(s, out[s]);
        break;
      }
      case 5: {  // combine the three contributions
        std::vector<std::uint64_t> partial(st.points.size(), 0);
        for (const auto& a : ctx.recv_concat<Answer>()) {
          partial[static_cast<std::size_t>(a.idx)] = a.partial;
        }
        std::vector<DomCount> res(st.points.size());
        for (std::size_t i = 0; i < st.points.size(); ++i) {
          res[i] = DomCount{st.points[i].id,
                            st.local[i] + st.fullb[st.bucket[i]] + partial[i]};
        }
        ctx.set_output(res, 0);
        break;
      }
      default:
        EMCGM_CHECK_MSG(false, "dominance_counts ran past its final round");
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const DomState& st) const override {
    return st.phase >= 6;
  }
};

struct ByX {
  bool operator()(const WPoint2& a, const WPoint2& b) const {
    return a.x < b.x;
  }
};

}  // namespace

cgm::DistVec<DomCount> dominance_counts(cgm::Machine& m,
                                        cgm::DistVec<WPoint2> points) {
  auto sorted = algo::sample_sort<WPoint2, ByX>(m, std::move(points));
  DominanceProgram prog;
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(sorted.set));
  auto outs = m.run(prog, std::move(inputs));
  EMCGM_CHECK(outs.size() == 1);
  return cgm::Machine::as_dist<DomCount>(std::move(outs[0]));
}

std::vector<DomCount> dominance_counts(cgm::Machine& m,
                                       const std::vector<WPoint2>& points) {
  auto dv = m.scatter<WPoint2>(points);
  auto res = m.gather(dominance_counts(m, std::move(dv)));
  std::sort(res.begin(), res.end(),
            [](const DomCount& a, const DomCount& b) { return a.id < b.id; });
  return res;
}

std::vector<DomCount> dominance_counts_brute(
    const std::vector<WPoint2>& points) {
  std::vector<DomCount> res;
  res.reserve(points.size());
  for (const auto& p : points) {
    std::uint64_t c = 0;
    for (const auto& q : points) {
      if (q.x < p.x && q.y < p.y) c += q.w;
    }
    res.push_back(DomCount{p.id, c});
  }
  std::sort(res.begin(), res.end(),
            [](const DomCount& a, const DomCount& b) { return a.id < b.id; });
  return res;
}

}  // namespace emcgm::geom
