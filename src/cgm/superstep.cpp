#include "cgm/superstep.h"

#include <algorithm>
#include <ostream>

#include "routing/balanced_routing.h"
#include "util/error.h"

namespace emcgm::cgm {

std::ostream& operator<<(std::ostream& os, const Superstep& at) {
  return os << "(round " << at.round << ", phase "
            << static_cast<std::uint32_t>(at.phase) << ")";
}

void Superstep::advance(bool balanced) {
  if (phase == Phase::kCompute && balanced) {
    phase = Phase::kRegroup;
  } else {
    phase = Phase::kCompute;
    ++round;
  }
}

std::uint64_t check_inputs(const std::vector<PartitionSet>& inputs,
                           std::uint32_t v) {
  std::uint64_t bytes = 0;
  for (const auto& slot : inputs) {
    EMCGM_CHECK_MSG(slot.parts.size() == v,
                    "input PartitionSet must have v parts");
    for (const auto& part : slot.parts) bytes += part.size();
  }
  return bytes;
}

std::vector<std::vector<std::byte>> take_inputs(
    std::vector<PartitionSet>& inputs, std::uint32_t j) {
  std::vector<std::vector<std::byte>> mine;
  mine.reserve(inputs.size());
  for (auto& slot : inputs) mine.push_back(std::move(slot.parts[j]));
  return mine;
}

RoundOutput compute_round(const Program& program, ProcCtx& ctx,
                          ProcState& state, std::uint64_t round,
                          std::vector<Message> inbox, bool balanced) {
  EMCGM_CHECK_MSG(round < kMaxRounds, "program '" << program.name()
                                                  << "' exceeded " << kMaxRounds
                                                  << " rounds");
  RoundOutput out;
  out.inbox_messages = inbox.size();
  ctx.begin_superstep(round, std::move(inbox));
  program.round(ctx, state);
  out.done = program.done(ctx, state);
  std::vector<Message> outbox = ctx.take_outbox();
  EMCGM_CHECK_MSG(!out.done || outbox.empty(),
                  "program '" << program.name()
                              << "' sent messages in its final round");
  out.outbox_messages = outbox.size();
  out.sent = balanced
                 ? routing::encode_phase_a(ctx.nprocs(), ctx.pid(), outbox)
                 : std::move(outbox);
  return out;
}

bool agree_done(const Program& program, std::uint64_t round,
                const std::vector<char>& done) {
  const auto finished = std::count(done.begin(), done.end(), char{1});
  EMCGM_CHECK_MSG(finished == 0 || finished == std::ssize(done),
                  "program '" << program.name()
                              << "' disagreed on termination at round "
                              << round);
  return finished > 0;
}

void place_outputs(std::vector<PartitionSet>& outputs, std::uint32_t v,
                   std::uint32_t j, std::vector<std::vector<std::byte>> slots) {
  if (slots.size() > outputs.size()) {
    outputs.resize(slots.size());
    for (auto& set : outputs) set.parts.resize(v);
  }
  for (std::size_t k = 0; k < slots.size(); ++k) {
    outputs[k].parts[j] = std::move(slots[k]);
  }
}

}  // namespace emcgm::cgm
