// CGMTranspose: transpose a rows x cols matrix held row-major in even
// chunks, producing the cols x rows transpose row-major in even chunks.
// Structurally CGMPermute with the computed index map (r, c) -> (c, r);
// lambda = 2 compound supersteps, I/O O(N/(pDB)) versus the PDM bound
// Theta(N/(DB) log_{M/B} min(M, rows, cols, N/B)).
#pragma once

#include <vector>

#include "algo/primitives.h"
#include "cgm/machine.h"
#include "cgm/program.h"

namespace emcgm::algo {

struct TransposeState {
  std::uint32_t phase = 0;
  auto fields() { return std::tie(phase); }
};

template <typename T>
class TransposeProgram final : public cgm::ProgramT<TransposeState> {
 public:
  TransposeProgram(std::uint64_t rows, std::uint64_t cols)
      : rows_(rows), cols_(cols), total_(rows * cols) {}

  std::string name() const override { return "cgm_transpose"; }

  void round(cgm::ProcCtx& ctx, TransposeState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    switch (st.phase) {
      case 0: {
        auto values = ctx.input_items<T>(0);
        const std::uint64_t base = chunk_begin(total_, v, ctx.pid());
        std::vector<std::vector<prim::Tagged<T>>> by_dst(v);
        for (std::size_t i = 0; i < values.size(); ++i) {
          const std::uint64_t g = base + i;
          const std::uint64_t r = g / cols_, c = g % cols_;
          const std::uint64_t target = c * rows_ + r;
          by_dst[chunk_owner(total_, v, target)].push_back(
              prim::Tagged<T>{target, values[i]});
        }
        for (std::uint32_t j = 0; j < v; ++j) ctx.send_vec(j, by_dst[j]);
        break;
      }
      case 1:
        ctx.set_output(prim::place_tagged<T>(ctx, total_), 0);
        break;
      default:
        EMCGM_CHECK_MSG(false, "cgm_transpose ran past its final round");
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const TransposeState& st) const override {
    return st.phase >= 2;
  }

 private:
  std::uint64_t rows_;
  std::uint64_t cols_;
  std::uint64_t total_;
};

/// Transpose a distributed row-major matrix.
template <typename T>
cgm::DistVec<T> transpose(cgm::Machine& m, cgm::DistVec<T> matrix,
                          std::uint64_t rows, std::uint64_t cols) {
  EMCGM_CHECK(matrix.total == rows * cols);
  TransposeProgram<T> prog(rows, cols);
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(matrix.set));
  auto outs = m.run(prog, std::move(inputs));
  EMCGM_CHECK(outs.size() == 1);
  return cgm::Machine::as_dist<T>(std::move(outs[0]));
}

}  // namespace emcgm::algo
