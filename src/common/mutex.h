// Annotated synchronization primitives: bfpp::Mutex, bfpp::LockGuard and
// bfpp::CondVar.
//
// Thin wrappers over std::mutex / std::condition_variable_any carrying
// the Clang Thread Safety Analysis attributes from
// common/thread_annotations.h. The std types themselves are not
// annotated, so code locking a raw std::mutex is invisible to the
// analysis; all shared-state code in this repo locks through these
// wrappers instead, which makes "which mutex guards which field" and
// "which helper needs which lock" compiler-checked on the CI clang leg
// (-Wthread-safety -Werror). There is no runtime cost: every method is
// an inline forward.
//
// CondVar waits on the Mutex wrapper directly (condition_variable_any
// accepts any BasicLockable), so a wait site keeps the capability held
// from the analysis's point of view - exactly the semantics the caller
// observes, since wait() reacquires before returning. Write wait loops
// as plain `while (!condition) cv.wait(mu);` - a predicate lambda would
// be analyzed as a lockless separate function and rejected.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace bfpp {

// An annotated std::mutex. Lock it through LockGuard; lock()/unlock()
// exist for LockGuard and CondVar.
class BFPP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() BFPP_ACQUIRE() { mu_.lock(); }
  void unlock() BFPP_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() BFPP_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

 private:
  std::mutex mu_;
};

// RAII lock for a Mutex (the annotated std::lock_guard).
class BFPP_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) BFPP_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() BFPP_RELEASE() { mu_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

// A condition variable that waits on bfpp::Mutex. Deliberately offers no
// predicate overloads: spell the predicate as the enclosing while-loop
// so the guarded reads in it are checked against the held mutex.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, sleeps, and reacquires before returning
  // (possibly spuriously - always re-check the condition in a loop).
  void wait(Mutex& mu) BFPP_REQUIRES(mu) { cv_.wait(mu); }

  // wait() with a timeout; returns false when the timeout elapsed first.
  template <typename Rep, typename Period>
  bool wait_for(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout)
      BFPP_REQUIRES(mu) {
    return cv_.wait_for(mu, timeout) == std::cv_status::no_timeout;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace bfpp
