// Chaos-harness configuration and the runtime invariant taxonomy.
//
// This header is deliberately dependency-light (like obs/obs_config.h): it is
// included by cgm/config.h so every engine carries a ChaosConfig, while the
// heavyweight chaos machinery (plan composition, fuzzing, shrinking) lives in
// chaos/plan.h and friends and is only pulled in by code that drives it.
//
// The invariant layer (cfg.chaos.invariants) turns properties that six PRs of
// fault-tolerance work argued for in comments into machine-checked runtime
// assertions. Every check is behind a single `if (cfg.chaos.invariants)` on a
// cold path (superstep barriers, membership changes, commits), so a disabled
// run pays one predictable branch per barrier and allocates nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/error.h"

namespace emcgm::chaos {

/// Which machine-checked property a violation report refers to.
enum class Invariant {
  kWatchdog,        ///< superstep rounds stopped making forward progress
  kSpread,          ///< store-group spread over live hosts exceeded 1
  kExactlyOnce,     ///< network delivered more/fewer crossing messages
                    ///< than the hosts posted
  kCommitMonotonic, ///< a commit boundary went backwards (round, phase)
  kExecutorDrain,   ///< async I/O still in flight at a superstep barrier
};

inline const char* to_string(Invariant inv) {
  switch (inv) {
    case Invariant::kWatchdog:
      return "watchdog";
    case Invariant::kSpread:
      return "spread";
    case Invariant::kExactlyOnce:
      return "exactly-once";
    case Invariant::kCommitMonotonic:
      return "commit-monotonic";
    case Invariant::kExecutorDrain:
      return "executor-drain";
  }
  return "unknown";
}

/// A runtime invariant tripped. Distinct from IoError on purpose: a typed
/// fault is the simulated machine failing as designed; an InvariantViolation
/// is the *engine* caught breaking its own guarantees — exactly what the
/// chaos fuzzer exists to surface. Catching emcgm::Error still catches these.
class InvariantViolation : public Error {
 public:
  InvariantViolation(Invariant which, const std::string& what)
      : Error(std::string("invariant violation [") + to_string(which) +
              "]: " + what),
        which_(which) {}

  Invariant which() const { return which_; }

 private:
  Invariant which_;
};

/// Chaos knobs carried by cgm::MachineConfig (cfg.chaos).
struct ChaosConfig {
  /// Arm the runtime invariant layer: no-progress watchdog, store-group
  /// spread <= 1, exactly-once delivery accounting, commit-boundary
  /// monotonicity, executor-drain-at-barrier. Off by default; outputs and
  /// every stat counter are bit-identical either way.
  bool invariants = false;

  /// No-progress watchdog threshold: physical supersteps the engine may run
  /// without the (round, phase) high-water mark advancing before the
  /// watchdog declares a livelock. Fail-over and rejoin replays legitimately
  /// re-run committed rounds, so the bound must exceed the longest replay
  /// chain a membership schedule can induce; 64 is far above anything a
  /// p <= 64 machine can produce while still catching a genuine stall in
  /// bounded time. Only consulted when `invariants` is on.
  std::uint32_t watchdog_steps = 64;

  /// Per-disk byte quota of each real processor's disks: empty = no quota
  /// anywhere, otherwise exactly p entries (0 = unlimited for that
  /// processor), so a chaos plan can fill up *one* machine's disks without
  /// touching the others. A materializing write past the quota raises a
  /// typed IoError(kNoSpace); with checkpointing on, the run aborts
  /// gracefully to the last committed boundary and EmEngine::resume()
  /// replays to bit-identical output once the quota is raised or cleared
  /// (EmEngine::set_disk_quota_bytes). Counts physical bytes on the media,
  /// checksum envelope included.
  std::vector<std::uint64_t> disk_quota_per_proc{};
};

}  // namespace emcgm::chaos
