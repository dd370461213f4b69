#include "geom/segment_stab.h"

#include <algorithm>

#include "algo/primitives.h"
#include "algo/sort.h"

namespace emcgm::geom {

namespace {

/// Per-chunk metadata gossip: (count, max) for the lo and hi arrays.
struct ChunkMeta {
  std::uint64_t lo_count, hi_count;
  double lo_max, hi_max;
};

struct RankQuery {
  double x;
  std::uint32_t kind;  // 0 = rank among lo (<= x), 1 = rank among hi (< x)
  std::uint32_t src;
  std::uint64_t local_idx;
};

struct RankAnswer {
  std::uint64_t local_idx;
  std::uint64_t rank;
  std::uint32_t kind;
  std::uint32_t pad = 0;
};

struct StabState {
  std::uint32_t phase = 0;
  std::vector<double> los, his;     // sorted chunks
  std::vector<StabQuery> queries;   // this processor's queries
  std::vector<std::uint64_t> lo_off, hi_off;  // global chunk offsets

  auto fields() { return std::tie(phase, los, his, queries, lo_off, hi_off); }
};

/// Route x to the owning chunk: the first chunk whose max >= x; empty
/// chunks never own anything. Returns v if every value is < x (rank =
/// total, answered locally by the caller).
std::uint32_t route_chunk(const std::vector<double>& maxima,
                          const std::vector<std::uint64_t>& counts,
                          double x) {
  const auto v = static_cast<std::uint32_t>(maxima.size());
  for (std::uint32_t s = 0; s < v; ++s) {
    if (counts[s] > 0 && maxima[s] >= x) return s;
  }
  return v;
}

class StabProgram final : public cgm::ProgramT<StabState> {
 public:
  std::string name() const override { return "interval_stabbing"; }

  void round(cgm::ProcCtx& ctx, StabState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    switch (st.phase) {
      case 0: {  // absorb sorted chunks; gossip chunk metadata
        st.los = ctx.input_items<double>(0);
        st.his = ctx.input_items<double>(1);
        st.queries = ctx.input_items<StabQuery>(2);
        ChunkMeta meta{st.los.size(), st.his.size(),
                       st.los.empty() ? 0.0 : st.los.back(),
                       st.his.empty() ? 0.0 : st.his.back()};
        prim::send_all(ctx, std::vector<ChunkMeta>{meta});
        break;
      }
      case 1: {  // route each query's two rank lookups
        auto by_src = prim::recv_by_src<ChunkMeta>(ctx);
        std::vector<double> lo_max(v, 0), hi_max(v, 0);
        std::vector<std::uint64_t> lo_cnt(v, 0), hi_cnt(v, 0);
        for (std::uint32_t s = 0; s < v; ++s) {
          if (by_src[s].empty()) continue;
          lo_max[s] = by_src[s][0].lo_max;
          hi_max[s] = by_src[s][0].hi_max;
          lo_cnt[s] = by_src[s][0].lo_count;
          hi_cnt[s] = by_src[s][0].hi_count;
        }
        st.lo_off = prim::exclusive_prefix(lo_cnt);
        st.hi_off = prim::exclusive_prefix(hi_cnt);
        const std::uint64_t lo_total = st.lo_off[v - 1] + lo_cnt[v - 1];
        const std::uint64_t hi_total = st.hi_off[v - 1] + hi_cnt[v - 1];

        std::vector<std::vector<RankQuery>> out(v);
        // Totals for queries past every chunk are resolved locally; stash
        // them as pre-filled answers via self-messages of kind answers in
        // phase 2 instead — simpler: encode as immediate ranks in state by
        // sending self-addressed answers.
        std::vector<RankAnswer> self;
        for (std::size_t i = 0; i < st.queries.size(); ++i) {
          const double x = st.queries[i].x;
          const auto s_lo = route_chunk(lo_max, lo_cnt, x);
          if (s_lo < v) {
            out[s_lo].push_back(RankQuery{x, 0, ctx.pid(), i});
          } else {
            self.push_back(RankAnswer{i, lo_total, 0});
          }
          const auto s_hi = route_chunk(hi_max, hi_cnt, x);
          if (s_hi < v) {
            out[s_hi].push_back(RankQuery{x, 1, ctx.pid(), i});
          } else {
            self.push_back(RankAnswer{i, hi_total, 1});
          }
        }
        if (!self.empty()) {
          // Deliver alongside phase-2 answers via a self-send one round
          // early; phase 3 consumes both uniformly... but the inbox of
          // phase 2 must contain only RankQuery records. Route the
          // pre-resolved answers through phase 2 by sending them to self
          // as queries with kind+2 (echo kinds).
          std::vector<RankQuery> echo;
          echo.reserve(self.size());
          for (const auto& a : self) {
            echo.push_back(RankQuery{static_cast<double>(a.rank),
                                     a.kind + 2u, ctx.pid(), a.local_idx});
          }
          auto& mine = out[ctx.pid()];
          mine.insert(mine.end(), echo.begin(), echo.end());
        }
        for (std::uint32_t s = 0; s < v; ++s) ctx.send_vec(s, out[s]);
        break;
      }
      case 2: {  // resolve ranks by local binary search
        std::vector<std::vector<RankAnswer>> out(v);
        for (const auto& q : ctx.recv_concat<RankQuery>()) {
          if (q.kind >= 2) {  // echoed pre-resolved total
            out[q.src].push_back(RankAnswer{
                q.local_idx, static_cast<std::uint64_t>(q.x), q.kind - 2});
            continue;
          }
          std::uint64_t rank;
          if (q.kind == 0) {  // #{lo <= x}
            rank = st.lo_off[ctx.pid()] +
                   static_cast<std::uint64_t>(
                       std::upper_bound(st.los.begin(), st.los.end(), q.x) -
                       st.los.begin());
          } else {  // #{hi < x}
            rank = st.hi_off[ctx.pid()] +
                   static_cast<std::uint64_t>(
                       std::lower_bound(st.his.begin(), st.his.end(), q.x) -
                       st.his.begin());
          }
          out[q.src].push_back(RankAnswer{q.local_idx, rank, q.kind});
        }
        for (std::uint32_t s = 0; s < v; ++s) ctx.send_vec(s, out[s]);
        break;
      }
      case 3: {  // combine: count = rank_lo - rank_hi
        std::vector<std::uint64_t> lo_rank(st.queries.size(), 0);
        std::vector<std::uint64_t> hi_rank(st.queries.size(), 0);
        for (const auto& a : ctx.recv_concat<RankAnswer>()) {
          (a.kind == 0 ? lo_rank : hi_rank)[a.local_idx] = a.rank;
        }
        std::vector<StabCount> res(st.queries.size());
        for (std::size_t i = 0; i < st.queries.size(); ++i) {
          EMCGM_CHECK(lo_rank[i] >= hi_rank[i]);
          res[i] = StabCount{st.queries[i].id, lo_rank[i] - hi_rank[i]};
        }
        ctx.set_output(res, 0);
        break;
      }
      default:
        EMCGM_CHECK_MSG(false, "interval_stabbing ran past its final round");
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const StabState& st) const override {
    return st.phase >= 4;
  }
};

}  // namespace

cgm::DistVec<StabCount> interval_stabbing(cgm::Machine& m,
                                          cgm::DistVec<Interval> intervals,
                                          cgm::DistVec<StabQuery> queries) {
  // Build and sort the endpoint arrays.
  const std::uint32_t v = m.v();
  cgm::DistVec<double> los, his;
  los.total = his.total = intervals.total;
  los.set.parts.resize(v);
  his.set.parts.resize(v);
  for (std::uint32_t j = 0; j < v; ++j) {
    auto part = bytes_to_vec<Interval>(intervals.set.parts[j]);
    std::vector<double> lo, hi;
    lo.reserve(part.size());
    hi.reserve(part.size());
    for (const auto& it : part) {
      EMCGM_CHECK(it.lo <= it.hi);
      lo.push_back(it.lo);
      hi.push_back(it.hi);
    }
    los.set.parts[j] = vec_to_bytes(lo);
    his.set.parts[j] = vec_to_bytes(hi);
  }
  auto sorted_lo = algo::sample_sort<double>(m, std::move(los));
  auto sorted_hi = algo::sample_sort<double>(m, std::move(his));

  StabProgram prog;
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(sorted_lo.set));
  inputs.push_back(std::move(sorted_hi.set));
  inputs.push_back(std::move(queries.set));
  auto outs = m.run(prog, std::move(inputs));
  return cgm::Machine::as_dist<StabCount>(std::move(outs.at(0)));
}

std::vector<StabCount> interval_stabbing(cgm::Machine& m,
                                         const std::vector<Interval>& iv,
                                         const std::vector<StabQuery>& qs) {
  auto div = m.scatter<Interval>(iv);
  auto dq = m.scatter<StabQuery>(qs);
  auto res = m.gather(interval_stabbing(m, std::move(div), std::move(dq)));
  std::sort(res.begin(), res.end(),
            [](const StabCount& a, const StabCount& b) { return a.id < b.id; });
  return res;
}

std::vector<StabCount> interval_stabbing_brute(
    const std::vector<Interval>& iv, const std::vector<StabQuery>& qs) {
  std::vector<StabCount> res;
  res.reserve(qs.size());
  for (const auto& q : qs) {
    std::uint64_t c = 0;
    for (const auto& it : iv) {
      if (it.lo <= q.x && q.x <= it.hi) ++c;
    }
    res.push_back(StabCount{q.id, c});
  }
  std::sort(res.begin(), res.end(),
            [](const StabCount& a, const StabCount& b) { return a.id < b.id; });
  return res;
}

}  // namespace emcgm::geom
