#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <system_error>
#include <utility>

#include "common/error.h"
#include "common/mutex.h"

namespace bfpp {

namespace {

// State shared by all participants of one parallel_for. Lives in a
// shared_ptr because enqueued driver tasks may outlive the call (a
// driver that never got scheduled wakes up after the loop is done,
// finds no index to claim, and exits).
struct ForLoop {
  // n and fn are set once before the loop is published to any driver.
  int n = 0;
  const std::function<void(int)>* fn = nullptr;
  std::atomic<int> next_index{0};
  std::atomic<int> completed{0};
  // mutex guards the error slot; done signals the last completion.
  Mutex mutex;
  CondVar done;
  // Lowest-index exception, so the rethrown error does not depend on
  // thread interleaving.
  int error_index BFPP_GUARDED_BY(mutex) = -1;
  std::exception_ptr error BFPP_GUARDED_BY(mutex);

  // Claims indices until the counter runs dry. Every claimed index is
  // counted as completed even when fn throws, so the caller's wait
  // always terminates.
  void drain() {
    for (;;) {
      const int i = next_index.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        (*fn)(i);
      } catch (...) {
        const LockGuard lock(mutex);
        if (error_index < 0 || i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
      if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        const LockGuard lock(mutex);
        done.notify_all();
      }
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(int n_threads) {
  const int n = std::max(1, n_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    try {
      workers_.emplace_back([this] { worker_loop(); });
    } catch (const std::system_error& e) {
      std::fprintf(stderr, "bfpp: spawned %zu of %d pool threads (%s)\n",
                   workers_.size(), n, e.what());
      break;
    }
  }
  check_config(!workers_.empty(), "thread pool: cannot spawn any thread");
}

ThreadPool::~ThreadPool() {
  {
    const LockGuard lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1));
  return pool;
}

int ThreadPool::resolve_jobs(int jobs) const {
  return jobs > 0 ? jobs : size() + 1;  // workers + the calling thread
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      const LockGuard lock(mutex_);
      while (!stopping_ && queue_.empty()) work_available_.wait(mutex_);
      if (queue_.empty()) return;  // stopping, and no work left to flush
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const LockGuard lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

bool ThreadPool::run_one_task() {
  std::function<void()> task;
  {
    const LockGuard lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::parallel_for(int n, int jobs,
                              const std::function<void(int)>& fn) {
  if (n <= 0) return;
  const int width = std::min(resolve_jobs(jobs), n);
  if (width <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }

  auto loop = std::make_shared<ForLoop>();
  loop->n = n;
  loop->fn = &fn;

  // width - 1 drivers on the pool; the caller is the width-th.
  {
    const LockGuard lock(mutex_);
    for (int d = 0; d < width - 1; ++d) {
      queue_.emplace_back([loop] { loop->drain(); });
    }
  }
  work_available_.notify_all();

  loop->drain();

  // Wait for stragglers; steal pending pool tasks (other loops' drivers)
  // while waiting so nested parallel_for calls cannot deadlock.
  while (loop->completed.load(std::memory_order_acquire) < n) {
    if (run_one_task()) continue;
    const LockGuard lock(loop->mutex);
    if (loop->completed.load(std::memory_order_acquire) < n) {
      loop->done.wait_for(loop->mutex, std::chrono::milliseconds(1));
    }
  }

  // The drain above completed-fences every worker's error store; move the
  // error out under the loop mutex so no late ForLoop owner destroys it.
  std::exception_ptr error;
  {
    const LockGuard lock(loop->mutex);
    error = std::exchange(loop->error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace bfpp
