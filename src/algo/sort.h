// Deterministic CGM sample sort (regular sampling, after Goodrich's
// constant-round CGM sorting as cited by the paper for Fig. 5 row A1).
//
// lambda = 6 compound supersteps, independent of N:
//   0  local sort, send v regular samples to processor 0
//   1  processor 0 sorts the <= v^2 samples, broadcasts v-1 splitters
//   2  partition local runs by splitter, send bucket k to processor k
//   3  merge the v sorted runs of the received bucket, all-gather bucket
//      counts
//   4  compute global ranks, rebalance to exact even chunks
//   5  emit output
// Regular sampling bounds every bucket by 2N/v + v items; processor 0 holds
// v^2 samples in round 1, giving the paper's N >= v^3-type slackness
// (kappa <= 3). Ties are broken by a globally unique id, so the bound holds
// for arbitrary duplicate-heavy inputs. The output is the exact even-chunk
// distribution (chunk_size(N, v, j) items on processor j), totally sorted
// across processors; the sort is not stable.
//
// Round 0 sorts each processor's items in (value, gid) order, where input
// item i of processor pid gets gid i * v + pid. For an unsigned key type
// under the default std::less order the type alone selects
// radix_sort_with_ids, a stable LSD radix sort; every other key type or
// order keeps std::sort with the (value, gid) comparator. The radix sort
// builds the items in increasing gid order and every pass is stable, so
// equal keys stay in gid order: both paths give the same items in the same
// order, and so the same contexts, messages and counts.
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "algo/primitives.h"
#include "cgm/machine.h"
#include "cgm/program.h"
#include "util/archive.h"

namespace emcgm::algo {

/// Item wrapper carrying a globally unique tie-break id.
template <typename T>
struct WithId {
  T val;
  std::uint64_t gid;
};

/// Round 0's kernel for unsigned keys: reads the keys of `input` in place
/// and returns WithId{key_i, i * v + pid} for every key, sorted by (key,
/// gid). A stable LSD radix sort with one scatter pass per 8-bit digit: one
/// counting pass fills every digit's histogram, and the first scatter pass
/// builds the items. The passes alternate between the result and one
/// scratch buffer of n items, starting where the parity of sizeof(T) makes
/// the last pass land in the result.
template <typename T>
  requires std::is_unsigned_v<T>
std::vector<WithId<T>> radix_sort_with_ids(std::span<const std::byte> input,
                                           std::uint32_t v,
                                           std::uint32_t pid) {
  constexpr std::size_t kDigits = sizeof(T);
  const std::size_t n = item_count<T>(input);
  std::vector<WithId<T>> out(n);
  if (n == 0) return out;  // an empty span's data() may be null
  const auto key = [&input](std::size_t i) {
    T k{};
    std::memcpy(&k, input.data() + i * sizeof(T), sizeof(T));
    return k;
  };
  const auto digit = [](T k, std::size_t d) {
    return static_cast<std::size_t>((k >> (8 * d)) & 0xFF);
  };

  std::array<std::array<std::size_t, 256>, kDigits> count{};
  for (std::size_t i = 0; i < n; ++i) {
    const T k = key(i);
    for (std::size_t d = 0; d < kDigits; ++d) ++count[d][digit(k, d)];
  }
  const auto bucket_starts = [&count](std::size_t d) {
    std::array<std::size_t, 256> at{};
    std::size_t sum = 0;
    for (std::size_t b = 0; b < 256; ++b) {
      at[b] = sum;
      sum += count[d][b];
    }
    return at;
  };

  std::unique_ptr<WithId<T>[]> scratch;
  if constexpr (kDigits > 1) {
    scratch = std::make_unique_for_overwrite<WithId<T>[]>(n);
  }
  WithId<T>* dst = kDigits % 2 == 1 ? out.data() : scratch.get();
  WithId<T>* src = kDigits % 2 == 1 ? scratch.get() : out.data();
  auto at = bucket_starts(0);
  for (std::size_t i = 0; i < n; ++i) {
    const T k = key(i);
    dst[at[digit(k, 0)]++] =
        WithId<T>{k, static_cast<std::uint64_t>(i) * v + pid};
  }
  for (std::size_t d = 1; d < kDigits; ++d) {
    std::swap(dst, src);
    at = bucket_starts(d);
    for (std::size_t i = 0; i < n; ++i) {
      dst[at[digit(src[i].val, d)]++] = src[i];
    }
  }
  return out;
}

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

  /// Whether round 0 runs radix_sort_with_ids: the key type is unsigned and
  /// the order is std::less, the radix sort's own order.
  static constexpr bool kRadixRound0 =
      std::is_unsigned_v<T> && std::is_same_v<Less, std::less<T>>;

  std::string name() const override { return "sample_sort"; }

  void round(cgm::ProcCtx& ctx, State& st) const override {
    const std::uint32_t v = ctx.nprocs();
    switch (st.phase) {
      case 0: {  // local sort + regular samples to processor 0
        if constexpr (kRadixRound0) {
          st.data = radix_sort_with_ids<T>(ctx.input(0), v, ctx.pid());
        } else {
          auto raw = ctx.input_items<T>(0);
          st.data.reserve(raw.size());
          for (std::size_t i = 0; i < raw.size(); ++i) {
            st.data.push_back(WithId<T>{
                raw[i], static_cast<std::uint64_t>(i) * v + ctx.pid()});
          }
          std::sort(st.data.begin(), st.data.end(), cmp());
        }
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
      case 3: {  // merge the bucket's v sorted runs, all-gather counts
        st.data = prim::merge_runs<WithId<T>>(ctx, cmp());
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
        constexpr std::size_t kItem = sizeof(WithId<T>);
        std::size_t n = 0;
        for (const auto& m : ctx.inbox()) {
          EMCGM_CHECK(m.payload.size() % kItem == 0);
          n += m.payload.size() / kItem;
        }
        auto& out = ctx.output(0);
        out.resize(n * sizeof(T));
        std::byte* dst = out.data();
        for (const auto& m : ctx.inbox()) {
          for (std::size_t at = 0; at < m.payload.size(); at += kItem) {
            WithId<T> w{};
            std::memcpy(&w, m.payload.data() + at, kItem);
            std::memcpy(dst, &w.val, sizeof(T));
            dst += sizeof(T);
          }
        }
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
