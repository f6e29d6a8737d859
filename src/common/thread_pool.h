// Shared work-stealing thread pool for parallel experiment campaigns.
//
// One process-wide pool (ThreadPool::shared()) backs both api::sweep()
// cell execution and autotune::find_best candidate evaluation, so nested
// parallelism (a sweep of searches) shares a single thread budget
// instead of oversubscribing the machine. `bfpp serve` runs its
// executors as a second, dedicated instance: fire-and-forget submit()
// tasks that each compute one request through the shared pool.
//
// Scheduling is work-stealing at two levels:
//  * within a parallel_for, every participant - pool workers and the
//    calling thread, which always works too - steals the next undone
//    index from a shared atomic counter, so uneven per-item costs
//    (simulating a 512-GPU config vs rejecting an invalid one) balance
//    dynamically;
//  * a caller whose loop has run dry but is still waiting on straggler
//    indices steals whole pending tasks from the pool's run queue, so a
//    blocked outer loop keeps executing inner-loop work instead of
//    idling. This also makes nested parallel_for calls deadlock-free:
//    waiting threads make progress on behalf of the pool.
//
// Determinism contract: parallel_for(n, jobs, fn) invokes fn(i) exactly
// once for every i in [0, n), with results addressed by index, so output
// order never depends on jobs or on thread interleaving. Callers keep
// byte-identical results across --jobs values by reducing index-ordered
// slots serially afterwards.
#pragma once

#include <deque>
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
