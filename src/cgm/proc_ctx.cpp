#include "cgm/proc_ctx.h"

#include <algorithm>

namespace emcgm::cgm {

void ProcCtx::send(std::uint32_t dst, std::vector<std::byte> payload) {
  EMCGM_CHECK_MSG(dst < nprocs_, "send to out-of-range processor " << dst);
  if (payload.empty()) return;
  // Multiple sends to the same destination within a superstep concatenate:
  // a CGM round delivers at most one logical message per (src, dst) pair,
  // which is what the fixed-slot disk layout of the EM engine relies on.
  for (auto& m : outbox_) {
    if (m.dst == dst) {
      m.payload.insert(m.payload.end(), payload.begin(), payload.end());
      return;
    }
  }
  outbox_.push_back(Message{pid_, dst, std::move(payload)});
}

void ProcCtx::begin_superstep(std::uint64_t step,
                              std::vector<Message> inbox) {
  superstep_ = step;
  inbox_ = std::move(inbox);
  std::sort(inbox_.begin(), inbox_.end(),
            [](const Message& a, const Message& b) { return a.src < b.src; });
  outbox_.clear();
}

std::vector<Message> ProcCtx::take_outbox() {
  std::vector<Message> out = std::move(outbox_);
  outbox_.clear();
  return out;
}

std::size_t ProcCtx::resident_bytes() const {
  std::size_t n = 0;
  for (const auto& m : inbox_) n += m.payload.size();
  for (const auto& m : outbox_) n += m.payload.size();
  for (const auto& o : outputs_) n += o.size();
  for (const auto& i : inputs_) n += i.size();
  return n;
}

}  // namespace emcgm::cgm
