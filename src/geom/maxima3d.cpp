#include "geom/maxima3d.h"

#include <algorithm>
#include <limits>
#include <map>

#include "algo/sort.h"
#include "util/math.h"

namespace emcgm::geom {

namespace {

/// Staircase entry: a point of the (y, z) Pareto front of a point set.
/// Stored sorted by y ascending; z is then strictly descending.
struct Stair {
  double y, z;
};

/// Insert a batch of points into a staircase, keeping the Pareto property.
/// Linear-time merge over the combined sorted sequence.
std::vector<Stair> merge_staircases(const std::vector<Stair>& a,
                                    const std::vector<Stair>& b) {
  std::vector<Stair> all;
  all.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(all),
             [](const Stair& s, const Stair& t) { return s.y < t.y; });
  // Right-to-left sweep: keep entries whose z exceeds every z to their
  // right (larger y).
  std::vector<Stair> out;
  double best_z = -std::numeric_limits<double>::infinity();
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    if (it->z > best_z) {
      out.push_back(*it);
      best_z = it->z;
    }
  }
  std::reverse(out.begin(), out.end());
  return out;
}

/// True iff the staircase contains an entry with y > py and z > pz.
/// Since z is decreasing in y, the maximum z among entries with y > py is
/// at the first such entry.
bool dominates(const std::vector<Stair>& stairs, double py, double pz) {
  auto it = std::upper_bound(
      stairs.begin(), stairs.end(), py,
      [](double y, const Stair& s) { return y < s.y; });
  return it != stairs.end() && it->z > pz;
}

/// Incremental staircase for the local sweep: map keyed by y, z strictly
/// decreasing in y; insert is amortized O(log n).
class LiveStaircase {
 public:
  bool dominates(double y, double z) const {
    auto it = front_.upper_bound(y);
    return it != front_.end() && it->second > z;
  }

  void insert(double y, double z) {
    if (dominates(y, z)) return;
    // Remove entries this point dominates (smaller y, smaller-or-equal z).
    auto it = front_.lower_bound(y);
    while (it != front_.begin()) {
      auto prev = std::prev(it);
      if (prev->second <= z) {
        it = front_.erase(prev);
      } else {
        break;
      }
    }
    front_[y] = z;
  }

  std::vector<Stair> snapshot() const {
    std::vector<Stair> sc;
    sc.reserve(front_.size());
    for (const auto& [y, z] : front_) sc.push_back(Stair{y, z});
    return sc;
  }

 private:
  std::map<double, double> front_;
};

struct MaxState {
  std::uint32_t phase = 0;
  std::vector<Point3> candidates;  // locally undominated, x-descending
  std::vector<Stair> acc;          // staircase of a contiguous processor range
  std::vector<Stair> pending;      // staircase received this round

  auto fields() { return std::tie(phase, candidates, acc, pending); }
};

// Phases: 0 = local staircase + first prefix-doubling send; 1..K = doubling
// merges; K+1 = exclusive-prefix shift; K+2 = filter and emit.
class MaximaProgram final : public cgm::ProgramT<MaxState> {
 public:
  std::string name() const override { return "maxima3d"; }

  void round(cgm::ProcCtx& ctx, MaxState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    const std::uint32_t K = v > 1 ? floor_log2(v - 1) + 1 : 0;  // ceil log2 v
    const std::uint32_t j = ctx.pid();

    if (st.phase == 0) {
      // Points arrive sorted by x descending (pipeline precondition).
      auto pts = ctx.input_items<Point3>(0);
      LiveStaircase seen;
      for (const auto& p : pts) {
        if (!seen.dominates(p.y, p.z)) st.candidates.push_back(p);
        seen.insert(p.y, p.z);
      }
      st.acc = seen.snapshot();
      if (K == 0) {
        emit(ctx, st);  // v == 1: no prefix to wait for
      } else if (j + 1 < v) {
        ctx.send_vec(j + 1, st.acc);  // stride 2^0
      }
    } else if (st.phase < K) {
      // Doubling round k = phase: merge what arrived from j - 2^(k-1),
      // then send the grown accumulator ahead by 2^k.
      auto in = ctx.recv_concat<Stair>();
      st.acc = merge_staircases(st.acc, in);
      const std::uint64_t stride = 1ULL << st.phase;
      if (j + stride < v) ctx.send_vec(static_cast<std::uint32_t>(j + stride),
                                       st.acc);
    } else if (st.phase == K && K > 0) {
      // Final doubling merge, then exclusive-prefix shift to j + 1.
      auto in = ctx.recv_concat<Stair>();
      st.acc = merge_staircases(st.acc, in);
      if (j + 1 < v) ctx.send_vec(j + 1, st.acc);
    } else if (st.phase == K + 1 && K > 0) {
      // acc of processor j-1 == staircase of all strictly-larger-x points.
      st.pending = ctx.recv_concat<Stair>();
      emit(ctx, st);
    } else {
      // v == 1: no prefix, everything local.
      emit(ctx, st);
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx& ctx, const MaxState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    const std::uint32_t K = v > 1 ? floor_log2(v - 1) + 1 : 0;
    return st.phase >= (K > 0 ? K + 2 : 1);
  }

 private:
  void emit(cgm::ProcCtx& ctx, MaxState& st) const {
    std::vector<Point3> maxima;
    for (const auto& p : st.candidates) {
      if (!dominates(st.pending, p.y, p.z)) maxima.push_back(p);
    }
    ctx.set_output(maxima, 0);
  }
};

struct SortByXDesc {
  bool operator()(const Point3& a, const Point3& b) const {
    return a.x > b.x;
  }
};

}  // namespace

cgm::DistVec<Point3> maxima3d(cgm::Machine& m, cgm::DistVec<Point3> points) {
  auto sorted = algo::sample_sort<Point3, SortByXDesc>(m, std::move(points));
  MaximaProgram prog;
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(sorted.set));
  auto outs = m.run(prog, std::move(inputs));
  EMCGM_CHECK(outs.size() == 1);
  return cgm::Machine::as_dist<Point3>(std::move(outs[0]));
}

std::vector<Point3> maxima3d(cgm::Machine& m,
                             const std::vector<Point3>& points) {
  auto dv = m.scatter<Point3>(points);
  return m.gather(maxima3d(m, std::move(dv)));
}

std::unique_ptr<cgm::Program> make_maxima_sort_program() {
  return std::make_unique<algo::SampleSortProgram<Point3, SortByXDesc>>();
}

std::unique_ptr<cgm::Program> make_maxima_program() {
  return std::make_unique<MaximaProgram>();
}

std::vector<Point3> maxima3d_brute(const std::vector<Point3>& points) {
  std::vector<Point3> out;
  for (const auto& p : points) {
    bool maximal = true;
    for (const auto& q : points) {
      if (q.x > p.x && q.y > p.y && q.z > p.z) {
        maximal = false;
        break;
      }
    }
    if (maximal) out.push_back(p);
  }
  std::sort(out.begin(), out.end(),
            [](const Point3& a, const Point3& b) { return a.x > b.x; });
  return out;
}

}  // namespace emcgm::geom
