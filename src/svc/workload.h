// Staged workloads for the multi-tenant job service.
//
// A Workload is a pipeline of CGM programs — stage s+1 consumes stage s's
// output slot 0 — plus deterministic input generation and an output check.
// The service runs each stage as one cooperative engine run (start / step*
// / finish), so a multi-stage workload preempts at any superstep barrier of
// any stage. Everything is a pure function of (kind, n, seed, v): two
// workloads built from the same parameters produce bit-identical inputs,
// which is the foundation of the solo-vs-service identity contract.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cgm/engine.h"
#include "cgm/program.h"

namespace emcgm::svc {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Stable kind name ("sort", "list_rank", "maxima") — what job files use.
  virtual const char* kind() const = 0;

  /// Number of pipeline stages (>= 1).
  virtual std::uint32_t stages() const = 0;

  /// Program driving stage `s` on a machine with the given seed. The
  /// returned program must outlive the stage's run.
  virtual std::unique_ptr<cgm::Program> program(std::uint32_t s,
                                                std::uint64_t seed) const = 0;

  /// Stage-0 inputs for a v-virtual-processor machine (even-chunk layout).
  virtual std::vector<cgm::PartitionSet> initial_inputs(
      std::uint32_t v) const = 0;

  /// Map stage s's outputs to stage s+1's inputs. Default: slot-for-slot
  /// pass-through, which every current pipeline uses.
  virtual std::vector<cgm::PartitionSet> next_inputs(
      std::uint32_t /*s*/, std::vector<cgm::PartitionSet> outs) const {
    return outs;
  }

  /// Structural sanity check of the final outputs (cheap, not a reference
  /// recomputation — tests do that). Throws util Error on violation.
  virtual void check(const std::vector<cgm::PartitionSet>& outs) const = 0;
};

/// Build a workload by kind name. Throws IoError(kConfig) on an unknown
/// kind. `n` is the input size, `seed` the input-generation seed.
std::unique_ptr<Workload> make_workload(const std::string& kind,
                                        std::uint64_t n, std::uint64_t seed);

/// FNV-1a over every output byte (slot ascending, partition ascending) —
/// the per-job result digest the bit-identity contract compares.
std::uint64_t output_hash(const std::vector<cgm::PartitionSet>& outs);

/// cgm::even_chunks's parts, for items whose size is known only at run time.
std::vector<std::vector<std::byte>> chunk_parts(const std::byte* data,
                                                std::size_t bytes,
                                                std::size_t item_size,
                                                std::uint32_t v);

}  // namespace emcgm::svc
