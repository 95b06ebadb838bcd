/**
 * @file
 * Clang Thread Safety Analysis annotation macros.
 *
 * These macros attach locking contracts to types, fields, and functions
 * so `clang -Wthread-safety` can prove, at compile time, that every
 * access to a guarded field happens with the right mutex held and that
 * every REQUIRES contract is satisfied at each call site. Under any
 * other compiler (or without the analysis) they expand to nothing, so
 * annotated code stays portable.
 *
 * Usage contract for thermctl code (enforced by tools/thermctl_analyze):
 *  - never use std::mutex directly; use thermctl::Mutex / MutexLock /
 *    CondVar from common/mutex.hh, which carry these annotations;
 *  - annotate every mutex-protected field THERMCTL_GUARDED_BY(mutex_);
 *  - annotate private methods that expect the caller to hold the lock
 *    THERMCTL_REQUIRES(mutex_), and public locking entry points
 *    THERMCTL_EXCLUDES(mutex_) where helpful.
 *
 * Build with -DTHERMCTL_THREAD_SAFETY=ON (Clang only) to compile the
 * whole tree under -Werror=thread-safety; see scripts/check.sh stage
 * "thread-safety".
 *
 * The macro set mirrors the naming of the Clang documentation's
 * mutex.h reference header (capability/acquire/release vocabulary).
 */

#ifndef THERMCTL_COMMON_THREAD_ANNOTATIONS_HH
#define THERMCTL_COMMON_THREAD_ANNOTATIONS_HH

#if defined(__clang__) && (!defined(SWIG))
#define THERMCTL_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define THERMCTL_THREAD_ANNOTATION(x) // no-op off Clang
#endif

/** Marks a type as a lockable capability ("mutex"). */
#define THERMCTL_CAPABILITY(x) THERMCTL_THREAD_ANNOTATION(capability(x))

/** Marks an RAII type whose lifetime acquires/releases a capability. */
#define THERMCTL_SCOPED_CAPABILITY \
    THERMCTL_THREAD_ANNOTATION(scoped_lockable)

/** Field may only be read or written with `x` held. */
#define THERMCTL_GUARDED_BY(x) THERMCTL_THREAD_ANNOTATION(guarded_by(x))

/** Pointed-to data may only be accessed with `x` held. */
#define THERMCTL_PT_GUARDED_BY(x) \
    THERMCTL_THREAD_ANNOTATION(pt_guarded_by(x))

/** Callers must hold every listed capability (not acquired here). */
#define THERMCTL_REQUIRES(...) \
    THERMCTL_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Callers must hold the listed capabilities shared (read) mode. */
#define THERMCTL_REQUIRES_SHARED(...) \
    THERMCTL_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/** Function acquires the capability and holds it on return. */
#define THERMCTL_ACQUIRE(...) \
    THERMCTL_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases a capability the caller held. */
#define THERMCTL_RELEASE(...) \
    THERMCTL_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function acquires the capability iff it returns `ret`. */
#define THERMCTL_TRY_ACQUIRE(ret, ...) \
    THERMCTL_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

/** Callers must NOT hold the listed capabilities (deadlock guard). */
#define THERMCTL_EXCLUDES(...) \
    THERMCTL_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Declares `x` as the capability returned by this accessor. */
#define THERMCTL_RETURN_CAPABILITY(x) \
    THERMCTL_THREAD_ANNOTATION(lock_returned(x))

/** Lock-ordering edge: this capability must be acquired after `...`. */
#define THERMCTL_ACQUIRED_AFTER(...) \
    THERMCTL_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/** Lock-ordering edge: this capability must be acquired before `...`. */
#define THERMCTL_ACQUIRED_BEFORE(...) \
    THERMCTL_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

/** Escape hatch: suppress the analysis inside one function body. */
#define THERMCTL_NO_THREAD_SAFETY_ANALYSIS \
    THERMCTL_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif // THERMCTL_COMMON_THREAD_ANNOTATIONS_HH
