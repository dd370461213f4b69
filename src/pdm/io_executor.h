// The one place a DiskArray's parallel ops run: inline on the submitting
// thread, or on per-disk worker threads that make a "parallel I/O" actually
// parallel on the wall clock.
//
// The PDM cost rule says one parallel operation moves up to D blocks, one
// per disk, at unit cost. With zero workers (io_threads == 0, the serial
// case) submit() moves the op's blocks in slot order on the caller's thread
// and counts the op before returning — no Op/Job objects, no lock. With
// W = min(io_threads, D) workers, worker w owns disks {d : d mod W == w} and
// drains one FIFO submission queue. Because DiskArray's occupancy mask
// guarantees that one operation never names a disk twice, and each disk's
// jobs execute in submission order, per-disk timelines are
// schedule-independent: read-after-write on a disk is ordered by the FIFO,
// and the fault injector's per-disk coin streams (fault.h) see the same
// per-disk op sequence no matter how the workers interleave.
//
// Both cases share one block routine (transfer: retry, backoff, seal and
// unseal) and one op-count step (count_op: op-level IoStats and the charge
// probe). Determinism contract (DESIGN.md §12):
//   * submission order defines everything observable — the workers' ops
//     are counted and charged at *reap* time in ascending op order, so
//     counters and the charge stream are bit-identical to the inline case;
//   * errors are re-raised canonically: the failure with the smallest
//     (op sequence, slot index) wins, regardless of which worker hit an
//     error first on the wall clock; ops submitted after the failed one are
//     drained but neither counted nor charged, as inline (which would never
//     have reached them);
//   * per-block counters (retries, corruptions) are added to their op under
//     the completion lock as each job finishes and folded into IoStats when
//     the op is reaped, so each wait(ticket) applies exactly the ops up to
//     its ticket, whatever the workers' timing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "pdm/backend.h"
#include "pdm/io_stats.h"

namespace emcgm::pdm {

struct ReadSlot;
struct WriteSlot;
struct DiskArrayOptions;

class IoExecutor {
 public:
  /// Called after every submit/completion with the number of in-flight
  /// blocks, under the completion lock (so calls are serialized, but they
  /// arrive from worker threads — the sink must be thread-safe). Never
  /// called with zero workers: nothing is ever in flight.
  using DepthFn = std::function<void(std::uint64_t in_flight_blocks)>;
  using SleepFn = std::function<void(std::uint64_t delay_us)>;

  /// `backend`, `opts` and `stats` belong to the owning DiskArray and
  /// outlive the executor. `opts` supplies the checksum envelope, the retry
  /// policy and the depth/charge probes (read at each use, so the owner may
  /// re-point on_charge between ops); `sleep` is the resolved backoff clock;
  /// `stats` receives every count.
  IoExecutor(StorageBackend& backend, std::uint32_t num_workers,
             const DiskArrayOptions& opts, SleepFn sleep, IoStats& stats);
  ~IoExecutor();  ///< stops and joins workers; DiskArray drains first, so
                  ///< the queues are empty by the time this runs.

  IoExecutor(const IoExecutor&) = delete;
  IoExecutor& operator=(const IoExecutor&) = delete;

  /// Run one admitted parallel op (ReadSlot or WriteSlot). With zero
  /// workers the op is done, counted and charged when this returns, and the
  /// ticket is 0. Otherwise it is enqueued and its sequence number
  /// returned: read buffers must stay valid until the ticket is waited on;
  /// write payloads are *copied* into the jobs, so the caller's buffers may
  /// die immediately (write-behind).
  template <typename Slot>
  std::uint64_t submit(std::span<const Slot> slots);

  /// Block until every op with sequence <= ticket has completed, then reap
  /// exactly those: fold their per-block counters and count and charge them
  /// in ascending op order, on the calling thread. On error, drains
  /// everything in flight, reaps it all, then re-raises the
  /// canonically-first failure (clearing it).
  /// No-op with zero workers. One thread drives an array: wait/drain are
  /// not called concurrently with each other or with submit.
  void wait(std::uint64_t ticket);

  /// wait() for everything submitted so far — the completion barrier.
  void drain();

  std::uint32_t num_workers() const {
    return static_cast<std::uint32_t>(queues_.size());
  }

  /// Blocks submitted but not yet completed (snapshot under the completion
  /// lock; exact at quiesce points; always 0 with zero workers).
  std::uint64_t in_flight_blocks() const {
    std::lock_guard<std::mutex> lk(done_mu_);
    return pending_blocks_;
  }

 private:
  struct Op {
    std::uint64_t seq = 0;
    bool is_write = false;
    std::uint32_t blocks = 0;      ///< slots in the op
    std::uint32_t pending = 0;     ///< jobs not yet completed (done_mu_)
    IoStats counts;  ///< finished jobs' retries/corruptions (done_mu_)
    /// (slot index, error) for every failed job; canonical order at reap.
    std::vector<std::pair<std::uint32_t, std::exception_ptr>> errors;
  };

  struct Job {
    Op* op = nullptr;
    std::uint32_t slot = 0;
    BlockAddr addr;
    std::span<std::byte> out;        ///< read destination
    std::vector<std::byte> payload;  ///< owned write payload copy
  };

  struct WorkerQueue {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Job> jobs;
  };

  /// Move one block: a write (non-empty `in`) or a read into `out`, with
  /// retry/backoff for transient faults and the checksum envelope in
  /// `scratch`. Retries and corruptions go to `counts`.
  void transfer(BlockAddr a, std::span<std::byte> out,
                std::span<const std::byte> in, std::span<std::byte> scratch,
                IoStats& counts);
  /// The op-count step: op-level IoStats plus the charge probe.
  void count_op(bool is_write, std::size_t blocks);
  void run_worker(std::uint32_t w);
  bool prefix_complete_locked(std::uint64_t ticket) const;

  StorageBackend& backend_;
  const DiskArrayOptions& opts_;
  SleepFn sleep_;
  IoStats& stats_;
  std::vector<std::byte> scratch_;  ///< physical-block staging (inline case)

  std::vector<std::unique_ptr<WorkerQueue>> queues_;  ///< empty = inline

  mutable std::mutex done_mu_;  ///< mutable: in_flight_blocks() is const
  std::condition_variable done_cv_;
  std::deque<std::unique_ptr<Op>> ops_;  ///< in-flight + unreaped, seq order
  std::uint64_t next_seq_ = 1;
  std::uint64_t pending_blocks_ = 0;
  std::atomic<bool> stop_{false};

  std::vector<std::thread> workers_;  ///< last member: joins before teardown
};

}  // namespace emcgm::pdm
