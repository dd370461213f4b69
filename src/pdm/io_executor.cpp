#include "pdm/io_executor.h"

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>

#include "pdm/disk_array.h"
#include "pdm/fault.h"

namespace emcgm::pdm {

IoExecutor::IoExecutor(StorageBackend& backend, std::uint32_t num_workers,
                       const DiskArrayOptions& opts, SleepFn sleep,
                       IoStats& stats)
    : backend_(backend),
      opts_(opts),
      sleep_(std::move(sleep)),
      stats_(stats),
      scratch_(opts.checksums && num_workers == 0
                   ? backend.geometry().block_bytes
                   : 0) {
  const std::uint32_t D = backend_.geometry().num_disks;
  EMCGM_CHECK_MSG(num_workers <= D, "executor wants 0.." << D
                                                         << " workers, got "
                                                         << num_workers);
  queues_.reserve(num_workers);
  for (std::uint32_t w = 0; w < num_workers; ++w) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(num_workers);
  for (std::uint32_t w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this, w] { run_worker(w); });
  }
}

IoExecutor::~IoExecutor() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& q : queues_) {
    // Take the queue lock so a worker between its predicate check and its
    // wait cannot miss the notification.
    { std::lock_guard<std::mutex> lk(q->mu); }
    q->cv.notify_all();
  }
  for (auto& t : workers_) t.join();
}

template <typename Slot>
std::uint64_t IoExecutor::submit(std::span<const Slot> slots) {
  constexpr bool kWrite = std::is_same_v<Slot, WriteSlot>;
  if (queues_.empty()) {
    // Inline: the caller's thread moves the blocks in slot order, so the
    // first failing slot is the canonical error, and the op is counted
    // only once every block landed.
    for (const Slot& s : slots) {
      if constexpr (kWrite) {
        transfer(s.addr, {}, s.data, scratch_, stats_);
      } else {
        transfer(s.addr, s.out, {}, scratch_, stats_);
      }
    }
    count_op(kWrite, slots.size());
    return 0;
  }
  Op* op = nullptr;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lk(done_mu_);
    ops_.push_back(std::make_unique<Op>());
    op = ops_.back().get();
    op->seq = seq = next_seq_++;
    op->is_write = kWrite;
    op->blocks = op->pending = static_cast<std::uint32_t>(slots.size());
    pending_blocks_ += slots.size();
    if (opts_.on_queue_depth) opts_.on_queue_depth(pending_blocks_);
  }
  const std::uint32_t W = num_workers();
  for (std::uint32_t i = 0; i < slots.size(); ++i) {
    Job job;
    job.op = op;
    job.slot = i;
    job.addr = slots[i].addr;
    if constexpr (kWrite) {
      // Write-behind: the caller's buffer may be a stack temporary (tail
      // pads, message staging) — own a copy for the job's lifetime.
      job.payload.assign(slots[i].data.begin(), slots[i].data.end());
    } else {
      job.out = slots[i].out;
    }
    auto& q = *queues_[job.addr.disk % W];
    {
      std::lock_guard<std::mutex> lk(q.mu);
      q.jobs.push_back(std::move(job));
    }
    q.cv.notify_one();
  }
  return seq;
}

template std::uint64_t IoExecutor::submit(std::span<const ReadSlot>);
template std::uint64_t IoExecutor::submit(std::span<const WriteSlot>);

void IoExecutor::run_worker(std::uint32_t w) {
  auto& q = *queues_[w];
  std::vector<std::byte> scratch(
      opts_.checksums ? backend_.geometry().block_bytes : 0);
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(q.mu);
      q.cv.wait(lk, [&] {
        return stop_.load(std::memory_order_relaxed) || !q.jobs.empty();
      });
      if (q.jobs.empty()) return;  // stop requested, queue drained
      job = std::move(q.jobs.front());
      q.jobs.pop_front();
    }
    IoStats counts;
    std::exception_ptr err;
    try {
      transfer(job.addr, job.out, job.payload, scratch, counts);
    } catch (...) {
      err = std::current_exception();
    }
    {
      // The error moves into the op: the reaping thread then holds the only
      // reference, and releases it.
      std::lock_guard<std::mutex> lk(done_mu_);
      if (err) job.op->errors.emplace_back(job.slot, std::move(err));
      job.op->counts += counts;
      --job.op->pending;
      --pending_blocks_;
      if (opts_.on_queue_depth) opts_.on_queue_depth(pending_blocks_);
    }
    done_cv_.notify_all();
  }
}

void IoExecutor::transfer(BlockAddr a, std::span<std::byte> out,
                          std::span<const std::byte> in,
                          std::span<std::byte> scratch, IoStats& counts) {
  const bool write = !in.empty();
  for (std::uint32_t attempt = 1;; ++attempt) {
    try {
      if (write && opts_.checksums) {
        backend_.write_sealed(a.disk, a.track, in, scratch);
      } else if (write) {
        backend_.write_block(a.disk, a.track, in);
      } else if (opts_.checksums) {
        backend_.read_unsealed(a.disk, a.track, out, scratch);
      } else {
        backend_.read_block(a.disk, a.track, out);
      }
      return;
    } catch (const IoError& e) {
      if (e.kind() == IoErrorKind::kCorruption) counts.corruptions += 1;
      if (e.kind() != IoErrorKind::kTransient) throw;
      if (attempt >= opts_.retry.max_attempts) {
        throw IoError(IoErrorKind::kExhausted,
                      std::string(write ? "write" : "read") +
                          " gave up after " + std::to_string(attempt) +
                          " attempts: " + e.what());
      }
      counts.retries += 1;
      sleep_(opts_.retry.backoff_us(attempt));
    }
  }
}

void IoExecutor::count_op(bool is_write, std::size_t blocks) {
  if (is_write) {
    stats_.write_ops += 1;
    stats_.blocks_written += blocks;
  } else {
    stats_.read_ops += 1;
    stats_.blocks_read += blocks;
  }
  if (blocks == backend_.geometry().num_disks) stats_.full_stripe_ops += 1;
  if (opts_.on_charge) opts_.on_charge(blocks);
}

bool IoExecutor::prefix_complete_locked(std::uint64_t ticket) const {
  for (const auto& op : ops_) {
    if (op->seq > ticket) break;
    if (op->pending != 0) return false;
  }
  return true;
}

void IoExecutor::wait(std::uint64_t ticket) {
  if (queues_.empty()) return;  // inline ops are counted as they run
  std::vector<std::unique_ptr<Op>> reaped;  // completed ops, in op order
  {
    std::unique_lock<std::mutex> lk(done_mu_);
    done_cv_.wait(lk, [&] { return prefix_complete_locked(ticket); });
    bool failed = false;
    while (!ops_.empty() && ops_.front()->seq <= ticket) {
      failed = failed || !ops_.front()->errors.empty();
      reaped.push_back(std::move(ops_.front()));
      ops_.pop_front();
    }
    if (failed) {
      // Quiesce fully before re-raising so the caller sees a stable array
      // (and the error is cleared for whoever retries).
      done_cv_.wait(lk, [&] { return pending_blocks_ == 0; });
      for (auto& op : ops_) reaped.push_back(std::move(op));
      ops_.clear();
    }
  }
  // Counting and charging belong to the waiting (driving) thread; the
  // charge probe runs outside the completion lock.
  for (const auto& op : reaped) stats_ += op->counts;
  for (const auto& op : reaped) {
    if (!op->errors.empty()) {
      // Canonically-first failure: smallest slot of the smallest op seq.
      // Ops after it are dropped uncounted — inline execution would never
      // have reached them.
      auto it = std::min_element(
          op->errors.begin(), op->errors.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      std::rethrow_exception(it->second);
    }
    count_op(op->is_write, op->blocks);
  }
}

void IoExecutor::drain() {
  if (queues_.empty()) return;
  std::uint64_t last;
  {
    std::lock_guard<std::mutex> lk(done_mu_);
    last = next_seq_ - 1;
  }
  wait(last);
}

}  // namespace emcgm::pdm
