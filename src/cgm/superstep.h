// The superstep protocol both engines follow (Lemma 2, Algorithm 1): each
// application round of a CGM program is a compute superstep, and under
// balanced routing a regroup superstep follows it, in which every virtual
// processor regroups its round-A fragments by final destination
// (routing::transform_intermediate). NativeEngine runs the physical
// supersteps in memory and EmEngine through its disks; both step, check,
// count and end a run with the rules below.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "cgm/engine.h"
#include "cgm/proc_ctx.h"

namespace emcgm::cgm {

/// Guard against programs that never report done().
inline constexpr std::uint64_t kMaxRounds = 1u << 20;

/// The kind of a physical superstep; kDone marks a finished run. EmEngine's
/// commit records store these values.
enum class Phase : std::uint32_t { kCompute = 0, kRegroup = 1, kDone = 2 };

/// A run's next physical superstep: an application round and its phase,
/// ordered as the run steps through them.
struct Superstep {
  std::uint64_t round = 0;
  Phase phase = Phase::kCompute;

  friend auto operator<=>(const Superstep&, const Superstep&) = default;
  /// Prints "(round R, phase P)".
  friend std::ostream& operator<<(std::ostream& os, const Superstep& at);

  /// Step past a delivered superstep: under balanced routing a compute
  /// superstep is followed by its regroup superstep; anything else by the
  /// next round's compute superstep.
  void advance(bool balanced);
};

/// The input split, in two calls. check_inputs throws Error unless every
/// input slot has v parts, and returns the slots' total bytes; take_inputs
/// moves virtual processor j's part of every slot out, in slot order.
std::uint64_t check_inputs(const std::vector<PartitionSet>& inputs,
                           std::uint32_t v);
std::vector<std::vector<std::byte>> take_inputs(
    std::vector<PartitionSet>& inputs, std::uint32_t j);

/// What one virtual processor's compute round produced.
struct RoundOutput {
  std::vector<Message> sent;  ///< its outbox; round-A fragments if balanced
  std::size_t inbox_messages = 0;   ///< messages the round received
  std::size_t outbox_messages = 0;  ///< messages the program sent
  bool done = false;
};

/// One virtual processor's round of a compute superstep: install `inbox`,
/// run the program's round, ask done() and take the outbox, which must be
/// empty in a final round; under balanced routing the outbox leaves as
/// round A of Algorithm 1 (routing::encode_phase_a). Throws Error at round
/// kMaxRounds.
RoundOutput compute_round(const Program& program, ProcCtx& ctx,
                          ProcState& state, std::uint64_t round,
                          std::vector<Message> inbox, bool balanced);

/// The termination agreement of a compute superstep, done[j] being virtual
/// processor j's done() (0 or 1): whether the program finished. Throws
/// Error when the processors disagree.
bool agree_done(const Program& program, std::uint64_t round,
                const std::vector<char>& done);

/// Close a delivery: its h-relation becomes one comm.steps row and one
/// communication superstep, so comm_steps == comm.steps.size().
inline void close_delivery(RunResult& result, const StepComm& step) {
  result.comm.steps.push_back(step);
  result.comm_steps += 1;
}

/// Place virtual processor j's output slots, adding slots of v parts to
/// `outputs` as needed.
void place_outputs(std::vector<PartitionSet>& outputs, std::uint32_t v,
                   std::uint32_t j, std::vector<std::vector<std::byte>> slots);

}  // namespace emcgm::cgm
