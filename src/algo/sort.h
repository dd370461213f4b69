// Deterministic CGM sample sort (regular sampling, after Goodrich's
// constant-round CGM sorting as cited by the paper for Fig. 5 row A1).
//
// lambda = 6 compound supersteps, independent of N:
//   0  local sort, send v regular samples to processor 0
//   1  processor 0 sorts the <= v^2 samples, broadcasts v-1 splitters
//   2  partition local runs by splitter, send bucket k to processor k
//   3  sort received bucket, all-gather bucket counts
//   4  compute global ranks, rebalance to exact even chunks
//   5  emit output
// Regular sampling bounds every bucket by 2N/v + v items; processor 0 holds
// v^2 samples in round 1, giving the paper's N >= v^3-type slackness
// (kappa <= 3). Ties are broken by a globally unique id, so the bound holds
// for arbitrary duplicate-heavy inputs. The output is the exact even-chunk
// distribution (chunk_size(N, v, j) items on processor j), totally sorted
// across processors; the sort is not stable.
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "algo/primitives.h"
#include "cgm/machine.h"
#include "cgm/program.h"

namespace emcgm::algo {

/// Item wrapper carrying a globally unique tie-break id.
template <typename T>
struct WithId {
  T val;
  std::uint64_t gid;
};

template <typename T>
struct SampleSortState {
  std::uint32_t phase = 0;
  std::vector<WithId<T>> data;
  std::vector<WithId<T>> splitters;
  std::uint64_t total = 0;
  std::uint64_t my_offset = 0;

  auto fields() { return std::tie(phase, data, splitters, total, my_offset); }
};

template <typename T, typename Less = std::less<T>>
class SampleSortProgram final : public cgm::ProgramT<SampleSortState<T>> {
 public:
  using State = SampleSortState<T>;

  std::string name() const override { return "sample_sort"; }

  void round(cgm::ProcCtx& ctx, State& st) const override {
    const std::uint32_t v = ctx.nprocs();
    switch (st.phase) {
      case 0: {  // local sort + regular samples to processor 0
        auto raw = ctx.input_items<T>(0);
        st.data.reserve(raw.size());
        for (std::size_t i = 0; i < raw.size(); ++i) {
          st.data.push_back(WithId<T>{
              raw[i], static_cast<std::uint64_t>(i) * v + ctx.pid()});
        }
        std::sort(st.data.begin(), st.data.end(), cmp());
        ctx.send_vec(0, prim::regular_samples(st.data, v));
        break;
      }
      case 1: {  // processor 0 chooses and broadcasts splitters
        if (ctx.pid() == 0) {
          prim::send_all(ctx, prim::pick_splitters(
                                  ctx.recv_concat<WithId<T>>(), v, cmp()));
        }
        break;
      }
      case 2: {  // partition the sorted run, bucket k -> processor k
        st.splitters = ctx.recv_from<WithId<T>>(0);
        std::size_t begin = 0;
        for (std::uint32_t k = 0; k < v; ++k) {
          std::size_t end;
          if (k + 1 < v && k < st.splitters.size()) {
            end = static_cast<std::size_t>(
                std::upper_bound(st.data.begin() + begin, st.data.end(),
                                 st.splitters[k], cmp()) -
                st.data.begin());
          } else {
            end = st.data.size();
          }
          ctx.send_items<WithId<T>>(
              k, std::span<const WithId<T>>(st.data.data() + begin,
                                            end - begin));
          begin = end;
        }
        st.data.clear();
        st.data.shrink_to_fit();
        break;
      }
      case 3: {  // sort the bucket, all-gather counts
        st.data = ctx.recv_concat<WithId<T>>();
        std::sort(st.data.begin(), st.data.end(), cmp());
        const std::uint64_t count = st.data.size();
        prim::send_all(ctx, std::vector<std::uint64_t>{count});
        break;
      }
      case 4: {  // global ranks; rebalance to exact even chunks
        auto by_src = prim::recv_by_src<std::uint64_t>(ctx);
        std::vector<std::uint64_t> counts(v, 0);
        for (std::uint32_t j = 0; j < v; ++j) {
          if (!by_src[j].empty()) counts[j] = by_src[j][0];
        }
        const auto prefix = prim::exclusive_prefix(counts);
        st.total = prefix[v - 1] + counts[v - 1];
        st.my_offset = prefix[ctx.pid()];
        prim::send_by_rank<WithId<T>>(ctx, st.data, st.my_offset, st.total);
        st.data.clear();
        st.data.shrink_to_fit();
        break;
      }
      case 5: {  // sources hold increasing rank ranges: concat is sorted
        auto final_items = ctx.recv_concat<WithId<T>>();
        std::vector<T> out;
        out.reserve(final_items.size());
        for (const auto& w : final_items) out.push_back(w.val);
        ctx.set_output(out, 0);
        break;
      }
      default:
        EMCGM_CHECK_MSG(false, "sample_sort ran past its final round");
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const State& st) const override {
    return st.phase >= 6;
  }

 private:
  /// (value, gid)-lexicographic order: strict weak and total for any input.
  struct Cmp {
    Less less{};
    bool operator()(const WithId<T>& a, const WithId<T>& b) const {
      if (less(a.val, b.val)) return true;
      if (less(b.val, a.val)) return false;
      return a.gid < b.gid;
    }
  };
  static Cmp cmp() { return Cmp{}; }
};

/// Sort a distributed vector; the result has the exact even-chunk layout.
template <typename T, typename Less = std::less<T>>
cgm::DistVec<T> sample_sort(cgm::Machine& m, cgm::DistVec<T> in) {
  SampleSortProgram<T, Less> prog;
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(in.set));
  auto outs = m.run(prog, std::move(inputs));
  EMCGM_CHECK(outs.size() == 1);
  return cgm::Machine::as_dist<T>(std::move(outs[0]));
}

/// One-call convenience: scatter, sort, gather.
std::vector<std::uint64_t> sort_keys(cgm::Machine& m,
                                     const std::vector<std::uint64_t>& keys);

}  // namespace emcgm::algo
