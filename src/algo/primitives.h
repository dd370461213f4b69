// Communication idioms used inside CGM program rounds: broadcast,
// (all-)gather, personalized all-to-all, regular sampling, and index-tagged
// routing. Each of these is one h-relation; host programs sequence them
// through their phase machines, so the helpers themselves are stateless.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "cgm/proc_ctx.h"
#include "util/math.h"

namespace emcgm::prim {

/// Broadcast: queue the same items for every processor (including self).
/// One h-relation with h = v * |items| at the sender; in CGM algorithms the
/// broadcast payload is O(v) (splitters, counts), so h = O(v^2) <= O(N/v)
/// under the usual N >= v^3 slackness.
template <typename T>
void send_all(cgm::ProcCtx& ctx, std::span<const T> items) {
  for (std::uint32_t j = 0; j < ctx.nprocs(); ++j) {
    ctx.send_items<T>(j, items);
  }
}

template <typename T>
void send_all(cgm::ProcCtx& ctx, const std::vector<T>& items) {
  send_all<T>(ctx, std::span<const T>(items));
}

/// Receive one vector per source processor (empty where nothing arrived).
template <typename T>
std::vector<std::vector<T>> recv_by_src(const cgm::ProcCtx& ctx) {
  std::vector<std::vector<T>> out(ctx.nprocs());
  for (const auto& m : ctx.inbox()) {
    out[m.src] = bytes_to_vec<T>(m.payload);
  }
  return out;
}

/// Regular sampling: v samples at positions k*n/v of a sorted local run
/// (none when the run is empty).
template <typename T>
std::vector<T> regular_samples(const std::vector<T>& sorted, std::uint32_t v) {
  std::vector<T> samples;
  if (sorted.empty()) return samples;
  samples.reserve(v);
  for (std::uint32_t k = 0; k < v; ++k) {
    samples.push_back(sorted[static_cast<std::size_t>(k) * sorted.size() / v]);
  }
  return samples;
}

/// Sort the gathered regular samples and pick v-1 splitters at positions
/// ceil((k+1)m/v)-1 (none when no samples arrived).
template <typename T, typename Less = std::less<>>
std::vector<T> pick_splitters(std::vector<T> samples, std::uint32_t v,
                              Less less = {}) {
  std::sort(samples.begin(), samples.end(), less);
  std::vector<T> spl;
  if (samples.empty()) return spl;
  spl.reserve(v - 1);
  for (std::uint32_t k = 0; k + 1 < v; ++k) {
    const std::uint64_t pos =
        ceil_div(static_cast<std::uint64_t>(k + 1) * samples.size(), v) - 1;
    spl.push_back(samples[static_cast<std::size_t>(pos)]);
  }
  return spl;
}

/// The slab processor j owns between the v-1 splitters of pick_splitters:
/// [spl[j-1], spl[j]), unbounded at either end of the line, and the whole
/// line when there are no splitters.
inline std::pair<double, double> slab(const std::vector<double>& spl,
                                      std::uint32_t j, std::uint32_t v) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {j == 0 || spl.empty() ? -kInf : spl[j - 1],
          j + 1 < v && !spl.empty() ? spl[j] : kInf};
}

/// Copy each item spanning [x1, x2] into every slab it overlaps: slabs
/// upper_bound(x1) .. lower_bound(x2) of the splitters.
template <typename T>
std::vector<std::vector<T>> split_by_slab(const std::vector<T>& items,
                                          const std::vector<double>& spl,
                                          std::uint32_t v) {
  std::vector<std::vector<T>> out(v);
  for (const auto& item : items) {
    const auto first = static_cast<std::uint32_t>(
        std::upper_bound(spl.begin(), spl.end(), item.x1) - spl.begin());
    const auto last = static_cast<std::uint32_t>(
        std::lower_bound(spl.begin(), spl.end(), item.x2) - spl.begin());
    for (std::uint32_t s = first; s <= last && s < v; ++s) {
      out[s].push_back(item);
    }
  }
  return out;
}

/// An item routed by explicit global index (CGMPermute-style traffic).
template <typename T>
struct Tagged {
  std::uint64_t idx;
  T val;
};

/// Place the received index-tagged items at their offsets in this
/// processor's chunk of a total-item vector; every index of the chunk must
/// arrive exactly once.
template <typename T>
std::vector<T> place_tagged(const cgm::ProcCtx& ctx, std::uint64_t total) {
  const std::uint64_t base = chunk_begin(total, ctx.nprocs(), ctx.pid());
  const auto mine = static_cast<std::size_t>(
      chunk_size(total, ctx.nprocs(), ctx.pid()));
  std::vector<T> out(mine);
  std::vector<char> seen(mine, 0);
  std::size_t received = 0;
  for (const auto& t : ctx.recv_concat<Tagged<T>>()) {
    const std::uint64_t local = t.idx - base;
    EMCGM_CHECK_MSG(local < mine && !seen[local],
                    "misrouted or duplicate target index " << t.idx);
    seen[local] = 1;
    out[local] = t.val;
    ++received;
  }
  EMCGM_CHECK_MSG(received == mine, "targets are not onto: processor "
                                        << ctx.pid() << " received "
                                        << received << " of " << mine);
  return out;
}

/// Exclusive prefix sum of a dense per-processor value table (the second
/// half of the canonical two-round CGM scan: all-gather the v totals, then
/// every processor computes offsets locally).
inline std::vector<std::uint64_t> exclusive_prefix(
    const std::vector<std::uint64_t>& counts) {
  std::vector<std::uint64_t> prefix(counts.size(), 0);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    prefix[i] = acc;
    acc += counts[i];
  }
  return prefix;
}

/// Route contiguous, rank-ordered items to their rank-chunk owners: item
/// with global rank r (ranks first_rank .. first_rank+n-1 locally) goes to
/// chunk_owner(total, v, r). Sends at most one message per destination.
/// Used by the rebalancing round of sort and by several graph algorithms.
template <typename T>
void send_by_rank(cgm::ProcCtx& ctx, std::span<const T> items,
                  std::uint64_t first_rank, std::uint64_t total) {
  const std::uint32_t v = ctx.nprocs();
  std::size_t i = 0;
  while (i < items.size()) {
    const std::uint64_t rank = first_rank + i;
    const std::uint32_t owner =
        static_cast<std::uint32_t>(chunk_owner(total, v, rank));
    const std::uint64_t owner_end = chunk_begin(total, v, owner) +
                                    chunk_size(total, v, owner);
    const std::size_t run =
        static_cast<std::size_t>(std::min<std::uint64_t>(
            items.size() - i, owner_end - rank));
    ctx.send_items<T>(owner, items.subspan(i, run));
    i += run;
  }
}

}  // namespace emcgm::prim
