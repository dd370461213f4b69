// Abstract execution engine for CGM programs. Two implementations:
//  * NativeEngine (cgm/native_engine.h): an in-memory CGM machine — the
//    paper's conventional parallel comparator (Fig. 3a).
//  * EmEngine (emcgm/em_engine.h): the paper's contribution — Algorithms
//    2 and 3, simulating the v virtual processors on p real processors with
//    D disks each, all communication carried by parallel disk I/O.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "cgm/comm_stats.h"
#include "cgm/config.h"
#include "cgm/message.h"
#include "cgm/program.h"
#include "net/net_stats.h"
#include "pdm/io_stats.h"

namespace emcgm::obs {
class Tracer;
class MetricsRegistry;
}  // namespace emcgm::obs

namespace emcgm::cgm {

/// One logical value distributed over the v virtual processors: parts[j] is
/// virtual processor j's partition, as raw bytes. Equal means bit-identical.
struct PartitionSet {
  std::vector<std::vector<std::byte>> parts;

  friend bool operator==(const PartitionSet&, const PartitionSet&) = default;
};

/// Split whole items of `item_bytes` bytes into v even contiguous parts:
/// part j holds items [chunk_begin(n, v, j), chunk_begin(n, v, j + 1)), the
/// layout of every engine input and sorted output.
PartitionSet even_chunks(std::span<const std::byte> bytes,
                         std::size_t item_bytes, std::uint32_t v);

template <typename T>
  requires std::is_trivially_copyable_v<T>
PartitionSet even_chunks(std::span<const T> items, std::uint32_t v) {
  return even_chunks(std::as_bytes(items), sizeof(T), v);
}

struct RunResult {
  std::uint64_t app_rounds = 0;   ///< compound supersteps of the CGM program
  std::uint64_t comm_steps = 0;   ///< physical communication supersteps
                                  ///< (2x app rounds under balanced routing)
  CommStats comm;                 ///< per physical superstep
  pdm::IoStats io;                ///< summed over real processors (EM only)
  /// I/O per physical superstep (EM engine; the final entry covers output
  /// collection). Sums to `io`.
  std::vector<pdm::IoStats> io_per_step;
  /// Simulated-network wire activity (EM engine with cfg.net.enabled).
  net::NetStats net;
  /// Node fail-over events absorbed during the run (EM engine with
  /// cfg.net.failover): each one re-assigned a dead processor's virtual
  /// processors to survivors and replayed from the last commit.
  std::uint64_t failovers = 0;
  /// Processors re-admitted by the rejoin handshake (EM engine, a reboot in
  /// cfg.net.fault.rejoins): each one caught up from the last committed
  /// checkpoint and took store groups back at a superstep barrier.
  std::uint64_t rejoins = 0;
  double wall_s = 0.0;

  RunResult& operator+=(const RunResult& o) {
    app_rounds += o.app_rounds;
    comm_steps += o.comm_steps;
    comm += o.comm;
    io += o.io;
    io_per_step.insert(io_per_step.end(), o.io_per_step.begin(),
                       o.io_per_step.end());
    net += o.net;
    failovers += o.failovers;
    rejoins += o.rejoins;
    wall_s += o.wall_s;
    return *this;
  }
};

/// The run check: names every deterministic field on which runs `a` and
/// `b` disagree, joined by "; " — app_rounds, comm_steps, each comm.steps
/// row, io, each io_per_step row, net, failovers and rejoins; never wall_s.
/// A struct field is named ("io", "comm.steps[2]"), a count with both values
/// ("app_rounds 3 != 4", "io_per_step rows 6 != 7"). Empty means the runs
/// repeat, which is what every identity gate asserts (DESIGN.md §7).
std::string run_mismatches(const RunResult& a, const RunResult& b);

/// Appends one entry to a mismatch text in run_mismatches' format: `entry`
/// itself unless it is empty, or "name a != b" when a != b.
void note_mismatch(std::string& text, const std::string& entry);
void note_mismatch(std::string& text, const std::string& name,
                   std::uint64_t a, std::uint64_t b);

class Engine {
 public:
  virtual ~Engine() = default;

  virtual const MachineConfig& config() const = 0;

  /// Run the program to completion. inputs[k].parts[j] is input slot k of
  /// virtual processor j (each PartitionSet must have exactly v parts).
  /// Returns the output slots, one PartitionSet per slot index used.
  virtual std::vector<PartitionSet> run(const Program& program,
                                        std::vector<PartitionSet> inputs) = 0;

  /// Statistics of the most recent run().
  virtual const RunResult& last_result() const = 0;

  /// Statistics accumulated over every run() since construction — a chained
  /// pipeline of programs is one longer CGM algorithm, so its lambda and I/O
  /// are the accumulated values.
  virtual const RunResult& total() const = 0;

  /// Phase-scoped span trace of this engine, or nullptr when observability
  /// is off (config().obs.trace). Spans accumulate across run() calls.
  virtual const obs::Tracer* tracer() const { return nullptr; }

  /// Per-physical-superstep metrics snapshots, or nullptr when
  /// observability is off.
  virtual const obs::MetricsRegistry* metrics() const { return nullptr; }
};

/// Accumulate per-superstep communication statistics from a delivered batch
/// of messages (shared by both engines).
void record_step_comm(StepComm& step, const std::vector<Message>& delivered,
                      std::uint32_t v);

}  // namespace emcgm::cgm
