#include "util/worker_pool.h"

#include "util/error.h"

namespace emcgm {

WorkerPool::WorkerPool(std::uint32_t workers) {
  if (workers == 0) {
    throw IoError(IoErrorKind::kConfig, "worker pool needs >= 1 worker");
  }
  threads_.reserve(workers - 1);
  try {
    for (std::uint32_t w = 1; w < workers; ++w) {
      threads_.emplace_back([this] { thread_main(); });
    }
  } catch (...) {
    stop_threads();  // a thread that failed to start must not leak the rest
    throw;
  }
}

WorkerPool::~WorkerPool() { stop_threads(); }

void WorkerPool::stop_threads() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::claim_all(std::unique_lock<std::mutex>& lk) {
  while (next_ < count_) {
    const std::size_t i = next_++;
    const auto& fn = *fn_;
    // The slot is this index's alone; the unfinished_ decrement below,
    // under mu_, is what publishes it to run().
    std::exception_ptr& err = (*errs_)[i];
    lk.unlock();
    try {
      fn(i);
    } catch (...) {
      err = std::current_exception();
    }
    lk.lock();
    if (--unfinished_ == 0) done_cv_.notify_one();
  }
}

void WorkerPool::thread_main() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [this] { return stop_ || next_ < count_; });
    if (stop_) return;
    claim_all(lk);
  }
}

void WorkerPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  std::vector<std::exception_ptr> errs(count);
  {
    std::unique_lock<std::mutex> lk(mu_);
    fn_ = &fn;
    errs_ = &errs;
    next_ = 0;
    count_ = count;
    unfinished_ = count;
    if (count > 1) work_cv_.notify_all();
    claim_all(lk);
    done_cv_.wait(lk, [this] { return unfinished_ == 0; });
    fn_ = nullptr;
    errs_ = nullptr;
  }
  for (std::exception_ptr& e : errs) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace emcgm
