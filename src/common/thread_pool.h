// Shared work-stealing thread pool for parallel experiment campaigns.
//
// One process-wide pool (ThreadPool::shared()) backs api::sweep() cell
// execution, autotune::find_best candidate evaluation and `bfpp
// serve`'s cache misses, so nested parallelism (a sweep of searches, a
// served request's cells) shares a single thread budget instead of
// oversubscribing the machine.
//
// Every parallel loop is one parallel_for_async(): drivers queued on the
// pool claim indices from a shared atomic counter, so uneven per-item
// costs (simulating a 512-GPU config vs rejecting an invalid one)
// balance dynamically, and the thread that completes the last index
// runs the loop's `done` callback - nobody waits for the loop. The
// server starts a request's cells this way and answers from `done`.
//
// parallel_for() is that loop with the calling thread as one more
// driver. A caller whose share has run dry but whose loop still has
// straggler indices steals whole pending tasks from the pool's run
// queue, so a blocked outer loop keeps executing inner-loop work
// instead of idling. This also makes nested parallel_for calls
// deadlock-free: waiting threads make progress on behalf of the pool.
//
// Determinism contract: parallel_for(n, jobs, fn) invokes fn(i) exactly
// once for every i in [0, n), with results addressed by index, so output
// order never depends on jobs or on thread interleaving. Callers keep
// byte-identical results across --jobs values by reducing index-ordered
// slots serially afterwards.
#pragma once

#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace bfpp {

class ThreadPool {
 public:
  // A pool of `n_threads` workers (minimum 1). Threads are lazy: they
  // sleep on a condition variable when the run queue is empty. When the
  // system refuses a thread (EAGAIN under tight rlimits), the pool warns
  // on stderr and runs with the workers that did spawn; it throws
  // ConfigError only when none did.
  explicit ThreadPool(int n_threads);
  // Runs every task still queued, then joins the workers.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // The process-wide pool, sized to the hardware concurrency.
  static ThreadPool& shared();

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  // Resolves a user-facing --jobs value: 0 (or negative) means "all
  // hardware threads" (pool workers + the calling thread).
  [[nodiscard]] int resolve_jobs(int jobs) const;

  // Runs fn(i) for every i in [0, n) on up to `jobs` threads (the caller
  // included; jobs <= 1 runs serially inline). Blocks until all n calls
  // completed. If any fn(i) throws, the exception thrown by the
  // lowest-index failing call is rethrown here after the loop drains
  // (deterministic across jobs values). Safe to call from inside a pool
  // task: nested calls share the pool and the waiting caller helps
  // execute pending work.
  void parallel_for(int n, int jobs, const std::function<void(int)>& fn);

  // Receives the exception thrown by the lowest-index failing fn(i) of a
  // parallel_for_async loop, or nullptr when every call returned.
  using LoopDone = std::function<void(std::exception_ptr)>;

  // Runs fn(i) for every i in [0, n) on min(width, n) drivers (width <= 0:
  // size(), plus one when the caller drives) and returns without waiting
  // for them. done runs exactly once, on the thread that completes the
  // last index (at once, on the caller, when n == 0); fn and done are
  // released right after. With `caller_drives` the calling thread is one
  // of the drivers: it returns once no index is left to claim, while
  // other drivers may still be running theirs. done must not throw.
  void parallel_for_async(int n, int width, std::function<void(int)> fn,
                          LoopDone done, bool caller_drives = false)
      BFPP_EXCLUDES(mutex_);

  // Queues `task` to run once on a worker and returns at once. Tasks
  // start in submission order. A task must not throw: no caller waits
  // for it to hand the error to.
  void submit(std::function<void()> task) BFPP_EXCLUDES(mutex_);

 private:
  void worker_loop() BFPP_EXCLUDES(mutex_);
  // Pops and runs one pending task; returns false when the queue is
  // empty. Used by waiting callers to steal work. The task itself runs
  // after the queue lock is dropped.
  bool run_one_task() BFPP_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;  // started in the ctor, joined in
                                      // the dtor; immutable in between
  // mutex_ guards the run queue and the stop flag; work_available_
  // signals a newly queued task (or shutdown) to sleeping workers.
  Mutex mutex_;
  CondVar work_available_;
  std::deque<std::function<void()>> queue_ BFPP_GUARDED_BY(mutex_);
  bool stopping_ BFPP_GUARDED_BY(mutex_) = false;
};

}  // namespace bfpp
