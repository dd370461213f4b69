// Deterministic fault injection for the simulated network, mirroring the
// pdm/fault design: a seeded plan, per-event coins from the shared fault
// clock (pdm::fault_coin), and assertable behavior — the same plan over the
// same transmission sequence fires the same faults.
//
// Five per-link fault classes on data/ack traffic:
//
//   * drop      — the frame vanishes in flight,
//   * duplicate — the link delivers the frame twice,
//   * corrupt   — one byte flips in flight; the receiver's CRC rejects it,
//   * reorder   — the frame is delayed past later frames on the link,
//   * delay     — congestion adds kDelayTicks of latency,
//
// plus fail-stop of a whole real processor: from a `fail_stops` event's step
// on, every frame to or from that processor is dropped — the machine is gone
// (until a later `rejoins` event reboots it).
//
// Heartbeat-class frames are exempt from the five random classes and subject
// only to fail-stop. This models an eventually-perfect failure detector
// directly instead of simulating its convergence: a live processor is
// eventually heard from, a fail-stopped one never is, and the engine's
// membership decisions stay deterministic under any random-loss seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.h"
#include "pdm/fault.h"
#include "routing/schedule.h"

namespace emcgm::net {

inline constexpr std::uint32_t kNoProc = 0xFFFFFFFF;

/// Fault-free one-way latency of a wire transmission, in virtual ticks.
inline constexpr std::uint32_t kBaseLatencyTicks = 1;
/// Extra latency of a congestion-delay fault, in virtual ticks.
inline constexpr std::uint32_t kDelayTicks = 3;

/// One entry of the membership schedule: processor `proc` fail-stops (or
/// reboots) at physical superstep `step`.
struct NodeEvent {
  std::uint32_t proc = kNoProc;
  std::uint64_t step = 0;
};

/// Seeded deterministic network fault schedule. Probabilities are per wire
/// transmission, with independent per-link coin streams.
struct NetFaultPlan {
  std::uint64_t seed = 1;

  double drop_prob = 0.0;     ///< frame lost in flight
  double dup_prob = 0.0;      ///< frame delivered twice
  double corrupt_prob = 0.0;  ///< one byte flipped in flight
  double reorder_prob = 0.0;  ///< frame delayed past its successors
  double delay_prob = 0.0;    ///< congestion delay of kDelayTicks

  /// Membership schedule: fail-stop events (the processor dies at that
  /// physical superstep and all its traffic is dropped from then on), and
  /// deterministic reboots. A processor with a rejoin event later than its
  /// latest fail-stop has its traffic flow again from that step on — the
  /// engine's rejoin handshake then re-admits it at a superstep barrier
  /// through the fail-over machinery (so a reboot requires net.failover).
  /// A kill and a reboot at the same step resolve to dead (kill wins).
  std::vector<NodeEvent> fail_stops{};
  std::vector<NodeEvent> rejoins{};

  bool enabled() const {
    return drop_prob > 0 || dup_prob > 0 || corrupt_prob > 0 ||
           reorder_prob > 0 || delay_prob > 0 || !fail_stops.empty();
  }
};

/// Network-layer configuration of a machine (EmEngine, p > 1).
struct NetConfig {
  /// Route cross-processor messages through the simulated network's framed,
  /// reliable-delivery protocol instead of handing them over by fiat.
  bool enabled = false;
  /// On the death of a real processor, re-assign its virtual processors to
  /// survivors from the last committed checkpoint and finish the run in
  /// degraded mode (requires cfg.checkpointing).
  bool failover = false;
  NetFaultPlan fault{};
  /// Retransmission schedule: max_attempts total transmissions per frame,
  /// backoff_us interpreted as virtual network ticks.
  pdm::RetryPolicy retry{8, 8, 2.0, 1024, nullptr};
  /// Maximum payload per wire frame: a superstep's batch stream is
  /// fragmented into frames of at most this size, so a fault costs one
  /// fragment's retransmission, not a whole batch's.
  std::size_t mtu_bytes = 64 * 1024;
  /// Collective schedule of the superstep communication round, one mailbox
  /// round per schedule step: step 0 is posted during compute (overlapped
  /// with it), later steps run store-and-forward at the barrier. kDirect is
  /// the one-step all-to-all; every kind gives bit-identical output, with a
  /// different wire shape (routing/schedule.h). The engine derives,
  /// verifies (typed kConfig on any violation), and re-derives the schedule
  /// on every membership epoch.
  routing::ScheduleKind schedule = routing::ScheduleKind::kDirect;
  /// User-supplied schedule JSON (routing::parse_schedule_json framing,
  /// as emitted by CommSchedule::to_json and accepted by
  /// tools/schedule_check --file). Consulted only when schedule == kCustom:
  /// parsed and verified before the run's first byte moves (typed kConfig
  /// on malformed JSON, a host set not matching the initial membership, or
  /// any verifier violation). A custom schedule names fixed hosts, so it
  /// cannot be re-derived when fail-over or rejoin changes the membership —
  /// the engine then falls back to the direct schedule for the remaining
  /// epochs (documented policy; see EmEngine::rebuild_schedule).
  std::string custom_schedule_json;
};

/// What the injector decided for one wire transmission.
struct LinkVerdict {
  bool drop = false;
  bool duplicate = false;
  bool corrupt = false;
  bool reordered = false;
  bool delayed = false;
  std::uint32_t extra_delay = 0;      ///< added to the base latency
  std::uint32_t dup_extra_delay = 0;  ///< latency of the duplicate copy
  std::size_t corrupt_pos = 0;        ///< byte index to flip
};

class LinkFaultInjector {
 public:
  LinkFaultInjector(std::uint32_t p, NetFaultPlan plan);

  /// Advance the shared fault clock to physical superstep `step` (drives the
  /// fail-stop and rejoin triggers).
  void set_step(std::uint64_t step) { step_ = step; }

  /// Advance the membership epoch. The epoch is mixed into every per-link
  /// coin stream id and the per-link transmission counters restart, so each
  /// epoch draws from its own independent coin streams: a kill→rejoin→kill
  /// sequence replays identically whatever traffic preceded it. Epoch 0
  /// (the whole life of a run without membership changes) is bit-identical
  /// to the pre-epoch streams.
  void set_epoch(std::uint64_t epoch);

  std::uint64_t epoch() const { return epoch_; }

  /// True while `proc` is fail-stopped under the plan at the current step:
  /// its latest fail-stop event has fired and no later rejoin event has.
  bool fail_stopped(std::uint32_t proc) const;

  /// True once a scheduled reboot has brought `proc` back up — it has a
  /// rejoin event at or before the current step that outdates every fired
  /// fail-stop. The rejoin handshake keys off this: only a node the plan
  /// says has rebooted asks back in.
  bool rebooted(std::uint32_t proc) const;

  /// Verdict for one transmission of `frame_bytes` bytes on link src->dst.
  /// Consumes one per-link fault-clock index for data/ack frames.
  LinkVerdict on_transmit(std::uint32_t src, std::uint32_t dst,
                          PacketType type, std::size_t frame_bytes);

  const NetFaultPlan& plan() const { return plan_; }

 private:
  NetFaultPlan plan_;
  std::uint32_t p_;
  std::uint64_t step_ = 0;
  std::uint64_t epoch_ = 0;                ///< membership epoch (engine-fed)
  std::vector<std::uint64_t> link_index_;  ///< transmissions per ordered link
};

}  // namespace emcgm::net
