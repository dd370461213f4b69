// Fork-join worker pool whose caller is one of its workers.
//
// run(count, fn) calls fn(0) .. fn(count - 1) once each and returns when
// every call has returned. WorkerPool(n) starts n - 1 threads; the caller
// of run() and those threads claim indices from one shared cursor, in
// ascending order, so an index waits only until some worker is free.
// WorkerPool(1) starts no thread and runs every index inline on the
// caller, in index order.
//
// Two users keep one pool each: the EM engine (one worker per host with
// use_threads, else one) runs each superstep phase's live hosts, and then
// their arrival writes, through it from its first superstep to its
// destruction, and the job service steps each tick's work items through
// it. The pool decides only which thread runs an index and when, never
// what runs: the indices are fixed before run() starts, and the caller
// reads their results only after run() returned.
//
// A task that throws has its exception kept; once every index has run,
// run() rethrows the exception of the lowest index that threw, so a batch
// with several failures reports the same error on every run.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace emcgm {

class WorkerPool {
 public:
  /// The caller plus `workers - 1` threads (`workers` >= 1; throws typed
  /// IoError(kConfig) on 0).
  explicit WorkerPool(std::uint32_t workers);

  /// Joins every thread.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::uint32_t workers() const {
    return static_cast<std::uint32_t>(threads_.size()) + 1;
  }

  /// Call fn(i) for every i in [0, count) and return when all have
  /// returned. One run at a time, from one thread. Rethrows the exception
  /// of the lowest index that threw, if any.
  void run(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  /// Claim and run indices until the cursor reaches the end. Called with
  /// mu_ held; drops it while a task runs.
  void claim_all(std::unique_lock<std::mutex>& lk);
  void thread_main();
  void stop_threads();

  std::mutex mu_;  ///< guards every field below but threads_
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::vector<std::exception_ptr>* errs_ = nullptr;  ///< one slot per index
  std::size_t next_ = 0;        ///< the shared cursor
  std::size_t count_ = 0;
  std::size_t unfinished_ = 0;  ///< indices that have not returned yet
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace emcgm
