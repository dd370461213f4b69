// Communication accounting in CGM/BSP terms: each communication round is an
// h-relation; we record per-round maxima so the Theorem 1 message-size
// bounds are observable quantities, not just proofs.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace emcgm::cgm {

/// One physical communication superstep (a balanced round counts as its own
/// superstep; an unbalanced app round is a single superstep).
struct StepComm {
  std::uint64_t messages = 0;     ///< non-empty messages delivered
  std::uint64_t bytes = 0;        ///< total payload bytes
  std::uint64_t max_sent = 0;     ///< max over procs of bytes sent
  std::uint64_t max_recv = 0;     ///< max over procs of bytes received
  /// min over *sending* procs of bytes sent / min over *receiving* procs
  /// of bytes received (the per-processor volumes the Theorem 1 round-A /
  /// round-B bounds divide by); max() when no proc sent/received.
  std::uint64_t min_sent = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t min_recv = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t min_msg_bytes = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_msg_bytes = 0;

  // Wire-level cost of realizing this h-relation on the simulated network
  // (0 when messages are handed over by fiat, i.e. net disabled). `bytes`
  // above stays the *delivered payload* — a lossy link that forces three
  // transmissions of a message realizes the same h-relation; the tax lands
  // here.
  std::uint64_t wire_bytes = 0;
  std::uint64_t retransmissions = 0;

  /// h of this superstep: max over procs of data sent or received.
  std::uint64_t h_bytes() const {
    return max_sent > max_recv ? max_sent : max_recv;
  }

  // Thread-safety discipline (DESIGN.md §10/§11): StepComm is entirely
  // *barrier-owned* — only ever filled at the superstep barrier, single-
  // threaded, from the per-group outcomes the worker threads left behind
  // (and from SimNetwork's canonically shard-merged round statistics).
  // Worker threads never touch a StepComm — which is why use_threads changes
  // no field here, bit for bit (asserted by the threaded-determinism sweeps
  // and ObsThreaded.ShardCountersBarrierInvariant).
  friend bool operator==(const StepComm&, const StepComm&) = default;
};

struct CommStats {
  std::vector<StepComm> steps;  ///< one entry per physical comm superstep

  std::uint64_t total_bytes() const {
    std::uint64_t t = 0;
    for (const auto& s : steps) t += s.bytes;
    return t;
  }

  std::uint64_t max_h_bytes() const {
    std::uint64_t m = 0;
    for (const auto& s : steps) m = s.h_bytes() > m ? s.h_bytes() : m;
    return m;
  }

  CommStats& operator+=(const CommStats& o) {
    steps.insert(steps.end(), o.steps.begin(), o.steps.end());
    return *this;
  }
};

}  // namespace emcgm::cgm
