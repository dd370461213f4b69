// CGMPermute (paper Algorithm 4): permutation in lambda = 2 compound
// supersteps — one personalized all-to-all routing each item to the chunk
// owner of its target index, one local placement round. I/O complexity of
// the simulated algorithm: O(N/(pDB)), versus the PDM permutation lower
// bound Theta(min(N/D, N/(DB) log_{M/B} N/B)) for unrestricted parameters.
#pragma once

#include <vector>

#include "algo/primitives.h"
#include "cgm/machine.h"
#include "cgm/program.h"

namespace emcgm::algo {

struct PermuteState {
  std::uint32_t phase = 0;
  auto fields() { return std::tie(phase); }
};

/// Permute N items: item at global position i moves to global position
/// perm[i]; perm must be a permutation of 0..N-1. Input slot 0 = values,
/// slot 1 = target indices, both in even-chunk layout.
template <typename T>
class PermuteProgram final : public cgm::ProgramT<PermuteState> {
 public:
  explicit PermuteProgram(std::uint64_t total) : total_(total) {}

  std::string name() const override { return "cgm_permute"; }

  void round(cgm::ProcCtx& ctx, PermuteState& st) const override;
  bool done(const cgm::ProcCtx&, const PermuteState& st) const override;

 private:
  std::uint64_t total_;
};

template <typename T>
void PermuteProgram<T>::round(cgm::ProcCtx& ctx, PermuteState& st) const {
  const std::uint32_t v = ctx.nprocs();
  switch (st.phase) {
    case 0: {  // route (target, value) pairs to the target's chunk owner
      auto values = ctx.input_items<T>(0);
      auto targets = ctx.input_items<std::uint64_t>(1);
      EMCGM_CHECK_MSG(values.size() == targets.size(),
                      "values and permutation partitions differ in size");
      // Group by destination to send one message per destination.
      std::vector<std::vector<prim::Tagged<T>>> by_dst(v);
      for (std::size_t i = 0; i < values.size(); ++i) {
        EMCGM_CHECK_MSG(targets[i] < total_,
                        "permutation target " << targets[i] << " out of range");
        const auto owner = chunk_owner(total_, v, targets[i]);
        by_dst[owner].push_back(prim::Tagged<T>{targets[i], values[i]});
      }
      for (std::uint32_t j = 0; j < v; ++j) ctx.send_vec(j, by_dst[j]);
      break;
    }
    case 1:  // place received items at their local offsets
      ctx.set_output(prim::place_tagged<T>(ctx, total_), 0);
      break;
    default:
      EMCGM_CHECK_MSG(false, "cgm_permute ran past its final round");
  }
  ++st.phase;
}

template <typename T>
bool PermuteProgram<T>::done(const cgm::ProcCtx&,
                             const PermuteState& st) const {
  return st.phase >= 2;
}

/// Apply a permutation to a distributed vector.
template <typename T>
cgm::DistVec<T> permute(cgm::Machine& m, cgm::DistVec<T> values,
                        cgm::DistVec<std::uint64_t> targets) {
  EMCGM_CHECK(values.total == targets.total);
  PermuteProgram<T> prog(values.total);
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(values.set));
  inputs.push_back(std::move(targets.set));
  auto outs = m.run(prog, std::move(inputs));
  EMCGM_CHECK(outs.size() == 1);
  return cgm::Machine::as_dist<T>(std::move(outs[0]));
}

}  // namespace emcgm::algo
