// Composed chaos plans: one seed -> one deterministic fault schedule across
// every fault surface the simulator has.
//
// The existing fault knobs are scattered by design — disk faults live in
// pdm::FaultPlan, link faults and membership schedules in net::NetFaultPlan,
// capacity quotas in chaos::ChaosConfig — because each layer owns its own
// failure model. A ChaosPlan is the composition layer on top: a flat list of
// typed ChaosEvents that apply() lowers onto a MachineConfig, arming all of
// them at once. The event-list representation is deliberate:
//
//   * it is what the delta-debugging shrinker (shrink.h) minimizes — events
//     can be removed one by one, and because every per-layer schedule is
//     seeded from the *plan* seed (not from event positions), removing one
//     event does not perturb when the surviving events fire;
//   * it serializes to a small JSON document, the repro artifact a failing
//     fuzz run leaves behind (to_json/parse_json round-trip exactly);
//   * generate() draws it from one seed, so a fuzz campaign is replayed by
//     its seed alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cgm/config.h"

namespace emcgm::chaos {

/// One composed fault. Field meaning depends on `kind` (see the enum): disk
/// events target real processor `proc` and use `value` as the per-disk op
/// trigger; link events are machine-wide and use `prob`; membership events
/// use `proc` + `value` (the physical superstep); a quota event uses `proc`
/// + `value` (the per-disk byte quota); a schedule event is machine-wide and
/// uses `value` as the routing::ScheduleKind index.
struct ChaosEvent {
  enum class Kind : std::uint32_t {
    kTransientRead,   ///< proc's Nth per-disk read fails (value = N)
    kTransientWrite,  ///< proc's Nth per-disk write fails (value = N)
    kTornWrite,       ///< proc's Nth per-disk write persists a prefix only
    kBitflip,         ///< proc's Nth per-disk write flips one byte at rest
    kDiskCrash,       ///< proc's disks fail-stop after `value` parallel ops
    kLinkDrop,        ///< frames vanish with probability `prob`
    kLinkDup,         ///< frames deliver twice with probability `prob`
    kLinkCorrupt,     ///< one byte flips in flight with probability `prob`
    kLinkReorder,     ///< frames overtake successors with probability `prob`
    kLinkDelay,       ///< congestion delay with probability `prob`
    kKill,            ///< processor `proc` fail-stops at step `value`
    kRejoin,          ///< processor `proc` reboots at step `value`
    kDiskQuota,       ///< proc's disks capped at `value` bytes each
    kSchedule,        ///< run under collective schedule `value` (0..3)
  };

  Kind kind = Kind::kTransientRead;
  std::uint32_t proc = 0;
  std::uint64_t value = 0;
  double prob = 0.0;

  friend bool operator==(const ChaosEvent&, const ChaosEvent&) = default;
};

const char* to_string(ChaosEvent::Kind kind);

/// Bounds for generate(): which fault surfaces a campaign draws from and how
/// hard it pushes them. The defaults match the nightly soak sweep.
struct PlanShape {
  std::uint32_t p = 2;            ///< real processors of the target machine
  std::uint32_t max_events = 6;   ///< events per plan (>= 1 drawn uniformly)
  std::uint64_t max_disk_op = 24; ///< trigger range of per-disk op events
  std::uint64_t max_step = 8;     ///< step range of kill/rejoin events
  double max_prob = 0.2;          ///< ceiling of link fault probabilities
  /// Byte-quota range of kDiskQuota events, as a [min, max] window chosen to
  /// straddle the workload's actual footprint so some draws abort and some
  /// squeak by. 0 disables quota events.
  std::uint64_t quota_min_bytes = 0;
  std::uint64_t quota_max_bytes = 0;
  bool allow_disk_crash = true;  ///< kDiskCrash events (need checkpointing)
  bool allow_kill = true;        ///< kKill events (need net.failover, p > 1)
  bool allow_rejoin = true;      ///< kKill+kRejoin pairs
  /// kSchedule events: run the plan under a drawn collective schedule
  /// (p > 1). Off by default so pre-existing seeded campaigns replay the
  /// exact event streams they always drew.
  bool allow_schedule = false;
  /// Tenant targeting for multi-job service runs (src/svc): -1 — the
  /// default — arms the generated plan machine-wide, i.e. on the single job
  /// a plan is applied to; >= 0 names the job (by submission index) whose
  /// machine the plan is armed on, with every co-resident tenant left
  /// untouched. Does not change what generate() draws — `p` must then be
  /// the *target job's* processor count, not the pool's host count.
  std::int32_t target_tenant = -1;
};

/// A composed, seeded, serializable fault schedule.
struct ChaosPlan {
  std::uint64_t seed = 1;  ///< seeds every per-layer coin stream
  std::vector<ChaosEvent> events;

  /// Lower the plan onto a machine config: per-processor disk FaultPlans,
  /// link fault probabilities (multiple events of one class keep the max),
  /// the membership schedule, and per-processor quotas. Membership events
  /// switch on the engine features they need (net.enabled/failover/rejoin +
  /// checkpointing); a kRejoin with no earlier kKill of the same processor
  /// is dropped (a reboot of a machine that never died is a no-op) so the
  /// shrinker may remove kills and rejoins independently. Every per-layer
  /// seed derives from `seed` + the layer id, never from event positions.
  void apply(cgm::MachineConfig& cfg) const;

  /// True when any event survives (an empty plan is the clean run).
  bool enabled() const { return !events.empty(); }

  /// Repro artifact: {"seed": ..., "events": [{...}]}. parse_json accepts
  /// exactly what to_json emits (field order free, whitespace free) and
  /// throws IoError(kConfig) on malformed input.
  std::string to_json() const;
  static ChaosPlan parse_json(const std::string& text);

  /// Draw a plan from one seed: event count in [1, shape.max_events], kinds
  /// uniform over the surfaces the shape allows, parameters uniform in the
  /// shape's ranges. Pure function of (seed, shape).
  static ChaosPlan generate(std::uint64_t seed, const PlanShape& shape);
};

}  // namespace emcgm::chaos
