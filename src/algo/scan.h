// Distributed prefix sums (scan): the canonical two-round CGM pattern —
// local sums, all-gather of the v per-processor totals, local offsets.
// Used by the Euler-tour derivations (depth, preorder) and available as a
// public primitive.
#pragma once

#include <vector>

#include "algo/primitives.h"
#include "cgm/machine.h"
#include "cgm/program.h"

namespace emcgm::algo {

struct ScanState {
  std::uint32_t phase = 0;
  std::vector<std::int64_t> data;

  auto fields() { return std::tie(phase, data); }
};

/// Inclusive or exclusive prefix sums over int64 (lambda = 2).
class ScanProgram final : public cgm::ProgramT<ScanState> {
 public:
  explicit ScanProgram(bool inclusive) : inclusive_(inclusive) {}

  std::string name() const override { return "prefix_scan"; }

  void round(cgm::ProcCtx& ctx, ScanState& st) const override {
    switch (st.phase) {
      case 0: {
        st.data = ctx.input_items<std::int64_t>(0);
        std::int64_t sum = 0;
        for (auto x : st.data) sum += x;
        prim::send_all(ctx, std::vector<std::int64_t>{sum});
        break;
      }
      case 1: {
        auto by_src = prim::recv_by_src<std::int64_t>(ctx);
        std::int64_t offset = 0;
        for (std::uint32_t s = 0; s < ctx.pid(); ++s) {
          if (!by_src[s].empty()) offset += by_src[s][0];
        }
        std::vector<std::int64_t> out(st.data.size());
        std::int64_t acc = offset;
        for (std::size_t i = 0; i < st.data.size(); ++i) {
          if (inclusive_) {
            acc += st.data[i];
            out[i] = acc;
          } else {
            out[i] = acc;
            acc += st.data[i];
          }
        }
        ctx.set_output(out, 0);
        break;
      }
      default:
        EMCGM_CHECK_MSG(false, "prefix_scan ran past its final round");
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const ScanState& st) const override {
    return st.phase >= 2;
  }

 private:
  bool inclusive_;
};

inline cgm::DistVec<std::int64_t> prefix_scan(cgm::Machine& m,
                                              cgm::DistVec<std::int64_t> in,
                                              bool inclusive = true) {
  ScanProgram prog(inclusive);
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(in.set));
  auto outs = m.run(prog, std::move(inputs));
  return cgm::Machine::as_dist<std::int64_t>(std::move(outs.at(0)));
}

}  // namespace emcgm::algo
