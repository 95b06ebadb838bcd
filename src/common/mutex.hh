/**
 * @file
 * Annotated synchronization primitives: thermctl::Mutex, MutexLock, and
 * CondVar.
 *
 * Thin wrappers over std::mutex / std::condition_variable_any carrying
 * the Clang Thread Safety Analysis annotations from
 * common/thread_annotations.hh, so the compiler can prove guarded-field
 * access and lock contracts instead of trusting "// guarded by mutex_"
 * comments. Project rule (enforced by tools/thermctl_analyze): all
 * thermctl code synchronizes through these types; naked std::mutex /
 * std::lock_guard / std::condition_variable are confined to this
 * header.
 *
 * MutexLock is a relockable scoped lock (the std::unique_lock shape the
 * scheduler's dispatch loop needs): it acquires on construction,
 * releases on destruction, and exposes annotated lock()/unlock() for
 * the drop-the-lock-around-work pattern.
 *
 * CondVar waits take the Mutex itself (not the scoped lock) so the wait
 * can carry a THERMCTL_REQUIRES contract the analysis understands;
 * predicate loops are written as explicit `while` statements at the
 * call site, which keeps every guarded-field read inside the annotated
 * critical section. The internal unlock/relock performed by the
 * standard wait lives in a system header, outside the analysis.
 */

#ifndef THERMCTL_COMMON_MUTEX_HH
#define THERMCTL_COMMON_MUTEX_HH

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.hh"

namespace thermctl
{

/** Exclusive capability; the annotated face of std::mutex. */
class THERMCTL_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() THERMCTL_ACQUIRE() { m_.lock(); }
    void unlock() THERMCTL_RELEASE() { m_.unlock(); }

    bool
    try_lock() THERMCTL_TRY_ACQUIRE(true)
    {
        return m_.try_lock();
    }

  private:
    std::mutex m_;
};

/**
 * Scoped lock over a Mutex: acquires in the constructor, releases in
 * the destructor, relockable in between.
 */
class THERMCTL_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) THERMCTL_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
        held_ = true;
    }

    ~MutexLock() THERMCTL_RELEASE()
    {
        if (held_)
            mu_.unlock();
    }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    /** Drop the lock early (e.g. around blocking work). */
    void
    unlock() THERMCTL_RELEASE()
    {
        mu_.unlock();
        held_ = false;
    }

    /** Re-acquire after unlock(). */
    void
    lock() THERMCTL_ACQUIRE()
    {
        mu_.lock();
        held_ = true;
    }

  private:
    Mutex &mu_;
    bool held_ = false;
};

/**
 * Condition variable bound to thermctl::Mutex.
 *
 * Waits REQUIRE the mutex held; use an explicit predicate loop:
 *
 *     MutexLock lock(mutex_);
 *     while (!ready_)
 *         cv_.wait(mutex_);
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Atomically release `mu`, sleep, and re-acquire before return. */
    void
    wait(Mutex &mu) THERMCTL_REQUIRES(mu)
    {
        cv_.wait(mu);
    }

    /**
     * wait(), bounded by `deadline`.
     * @return false when the deadline passed before a notification.
     */
    template <typename Clock, typename Duration>
    bool
    waitUntil(Mutex &mu,
              const std::chrono::time_point<Clock, Duration> &deadline)
        THERMCTL_REQUIRES(mu)
    {
        return cv_.wait_until(mu, deadline)
               == std::cv_status::no_timeout;
    }

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

  private:
    std::condition_variable_any cv_;
};

} // namespace thermctl

#endif // THERMCTL_COMMON_MUTEX_HH
