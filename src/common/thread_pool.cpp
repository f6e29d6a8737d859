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

// State shared by all drivers of one loop. Lives in a shared_ptr because
// queued drivers may outlive the loop (a driver that never got
// scheduled wakes up after the last index is done, finds no index to
// claim, and exits).
struct ForLoop {
  // n, fn and done are set once before the loop is published to any
  // driver; finish() releases fn and done after every fn call returned.
  int n = 0;
  std::function<void(int)> fn;
  ThreadPool::LoopDone done;
  std::atomic<int> next_index{0};
  std::atomic<int> completed{0};
  // mutex guards the error slot.
  Mutex mutex;
  // Lowest-index exception, so the reported error does not depend on
  // thread interleaving.
  int error_index BFPP_GUARDED_BY(mutex) = -1;
  std::exception_ptr error BFPP_GUARDED_BY(mutex);

  // Claims indices until the counter runs dry. Every claimed index is
  // counted as completed even when fn throws, so the loop always
  // finishes; the thread that completes the last index runs done.
  void drain() {
    for (;;) {
      const int i = next_index.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        const LockGuard lock(mutex);
        if (error_index < 0 || i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
      if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        finish();
      }
    }
  }

  // Runs once, after the last fn call returned (the acq_rel count above
  // orders every driver's calls and error stores before it), so fn and
  // done can be released here: nothing the loop captured outlives it.
  void finish() {
    std::exception_ptr first;
    {
      const LockGuard lock(mutex);
      first = std::exchange(error, nullptr);
    }
    fn = nullptr;
    std::exchange(done, nullptr)(std::move(first));
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

void ThreadPool::parallel_for_async(int n, int width,
                                    std::function<void(int)> fn,
                                    LoopDone done, bool caller_drives) {
  if (n <= 0) {
    done(nullptr);
    return;
  }
  if (width <= 0) width = size() + (caller_drives ? 1 : 0);
  const int drivers = std::min(width, n) - (caller_drives ? 1 : 0);
  auto loop = std::make_shared<ForLoop>();
  loop->n = n;
  loop->fn = std::move(fn);
  loop->done = std::move(done);
  if (drivers > 0) {
    {
      const LockGuard lock(mutex_);
      for (int d = 0; d < drivers; ++d) {
        queue_.emplace_back([loop] { loop->drain(); });
      }
    }
    drivers == 1 ? work_available_.notify_one() : work_available_.notify_all();
  }
  if (caller_drives) loop->drain();
}

void ThreadPool::parallel_for(int n, int jobs,
                              const std::function<void(int)>& fn) {
  if (n <= 0) return;
  const int width = std::min(resolve_jobs(jobs), n);
  if (width <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }

  // The caller is one of the loop's drivers; done hands the loop's
  // outcome back through `wait`, which outlives every driver.
  struct Wait {
    Mutex mutex;
    CondVar finished_cv;
    bool finished BFPP_GUARDED_BY(mutex) = false;
    std::exception_ptr error BFPP_GUARDED_BY(mutex);
  };
  auto wait = std::make_shared<Wait>();
  parallel_for_async(
      n, width, [&fn](int i) { fn(i); },
      [wait](std::exception_ptr error) {
        const LockGuard lock(wait->mutex);
        wait->error = std::move(error);
        wait->finished = true;
        wait->finished_cv.notify_all();
      },
      /*caller_drives=*/true);

  // Wait for stragglers; steal pending pool tasks (other loops' drivers)
  // while waiting so nested parallel_for calls cannot deadlock.
  std::exception_ptr error;
  for (;;) {
    {
      const LockGuard lock(wait->mutex);
      if (wait->finished) {
        error = std::exchange(wait->error, nullptr);
        break;
      }
    }
    if (run_one_task()) continue;
    const LockGuard lock(wait->mutex);
    if (!wait->finished) {
      wait->finished_cv.wait_for(wait->mutex, std::chrono::milliseconds(1));
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace bfpp
