#include "common/parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "common/mutex.hh"

namespace thermctl
{

namespace
{

using IndexFn = std::function<void(std::size_t)>;

/** One parallelFor call; lives on its caller's stack. */
class Job
{
  public:
    Job(std::size_t n, const IndexFn &fn, std::size_t width)
        : fn_(fn), n_(n),
          max_helpers_(
              n > 1 ? std::min(n, std::max<std::size_t>(width, 1)) - 1 : 0)
    {
    }
    Job(const Job &) = delete;
    Job &operator=(const Job &) = delete;

    /** Helpers that may work on this job at once, the caller aside. */
    std::size_t maxHelpers() const { return max_helpers_; }

    /** Claim and run indices until none are left. */
    void
    work()
    {
        for (;;) {
            const std::size_t i =
                next_.fetch_add(1, std::memory_order_relaxed);
            if (i >= n_)
                return;
            try {
                fn_(i);
            } catch (...) {
                MutexLock lock(mutex_);
                if (!error_)
                    error_ = std::current_exception();
                next_.store(n_, std::memory_order_relaxed);
            }
        }
    }

    /**
     * A helper starts working on this job, unless no index is left to
     * claim or the job already has maxHelpers() helpers.
     */
    bool
    tryEnter() THERMCTL_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        if (next_.load(std::memory_order_relaxed) >= n_
            || helpers_ == max_helpers_)
            return false;
        ++helpers_;
        return true;
    }

    /** A helper is done with this job and will not touch it again. */
    void
    leave() THERMCTL_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        if (--helpers_ == 0)
            done_.notify_all();
    }

    /**
     * Wait until no helper is inside (the job must already be out of
     * the pool's list), then rethrow the first error.
     */
    void
    join() THERMCTL_EXCLUDES(mutex_)
    {
        std::exception_ptr error;
        {
            MutexLock lock(mutex_);
            while (helpers_ > 0)
                done_.wait(mutex_);
            error = error_;
        }
        if (error)
            std::rethrow_exception(error);
    }

  private:
    const IndexFn &fn_;
    const std::size_t n_;
    const std::size_t max_helpers_;
    std::atomic<std::size_t> next_{0};
    Mutex mutex_;
    CondVar done_;
    std::size_t helpers_ THERMCTL_GUARDED_BY(mutex_) = 0;
    std::exception_ptr error_ THERMCTL_GUARDED_BY(mutex_);
};

/** The process-wide helper threads and the jobs they may join. */
class Pool
{
  public:
    explicit Pool(unsigned helpers)
    {
        threads_.reserve(helpers);
        for (unsigned h = 0; h < helpers; ++h) {
            try {
                threads_.emplace_back([this] { helperLoop(); });
            } catch (const std::system_error &) {
                break; // out of threads: callers do the rest themselves
            }
        }
    }
    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    /** Publish `job`, work on it from the caller, then withdraw it. */
    void
    run(Job &job) THERMCTL_EXCLUDES(mutex_)
    {
        const std::size_t wanted =
            std::min(job.maxHelpers(), threads_.size());
        if (wanted > 0) {
            MutexLock lock(mutex_);
            jobs_.push_back(&job);
        }
        for (std::size_t k = 0; k < wanted; ++k)
            wake_.notify_one();
        job.work();
        if (wanted > 0) {
            MutexLock lock(mutex_);
            jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
        }
    }

  private:
    /** Enter the oldest published job that takes a helper, if any. */
    Job *
    enterWork() THERMCTL_REQUIRES(mutex_)
    {
        for (Job *job : jobs_) {
            if (job->tryEnter())
                return job;
        }
        return nullptr;
    }

    void
    helperLoop() THERMCTL_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        for (;;) {
            // Entered under mutex_: the caller withdraws the job under
            // mutex_ before join(), so it waits for this helper.
            Job *job = enterWork();
            if (!job) {
                wake_.wait(mutex_);
                continue;
            }
            lock.unlock();
            job->work();
            job->leave();
            lock.lock();
        }
    }

    Mutex mutex_;
    CondVar wake_;
    std::vector<Job *> jobs_ THERMCTL_GUARDED_BY(mutex_);
    std::vector<std::thread> threads_;
};

Pool &
pool()
{
    // Leaked on purpose: helpers idle in wake_.wait() at exit, and a
    // caller still running during static destruction keeps a live pool.
    static Pool *const instance = [] {
        const unsigned hw = std::thread::hardware_concurrency();
        return new Pool(hw > 1 ? hw - 1 : 0);
    }();
    return *instance;
}

} // namespace

void
parallelFor(std::size_t n, const IndexFn &fn, std::size_t width)
{
    Job job(n, fn, width);
    if (job.maxHelpers() > 0)
        pool().run(job);
    else
        job.work();
    job.join();
}

int
currentCpu()
{
#ifdef __linux__
    return sched_getcpu();
#else
    return -1;
#endif
}

void
moveOffCpu(int cpu)
{
#ifdef __linux__
    if (cpu < 0 || cpu >= CPU_SETSIZE || sched_getcpu() != cpu)
        return;
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    cpu_set_t elsewhere = allowed;
    CPU_CLR(cpu, &elsewhere);
    if (CPU_COUNT(&elsewhere) == 0)
        return;
    // Leaving `cpu` out of the mask migrates the thread at once; putting
    // it back leaves the thread where it now is.
    if (sched_setaffinity(0, sizeof elsewhere, &elsewhere) == 0)
        sched_setaffinity(0, sizeof allowed, &allowed);
#else
    (void)cpu;
#endif
}

} // namespace thermctl
