/**
 * @file
 * Fork-join over a process-wide helper pool: parallelFor(n, fn).
 *
 * The pool holds hardware_concurrency() - 1 helper threads, created on
 * the first parallelFor call that has more than one index (never during
 * static initialisation, so a process may fork freely before its first
 * use) and never destroyed. Idle helpers sleep on a CondVar.
 *
 * The calling thread claims indices alongside the helpers, so a call
 * always finishes even when every helper is busy elsewhere: concurrent
 * callers (sweep points, serve dispatchers) share the helpers, and a
 * nested call from inside fn cannot deadlock. With no helpers (one CPU),
 * a single index or a width of 1, every index runs on the caller.
 *
 * Callers: SweepEngine (one index per point), MulticoreSimulator (one
 * index per core within a sample window), and Simulator::run, whose two
 * indices are the stages of its cycle pipeline (DESIGN.md §2.2): the core
 * on the caller, and micro-op generation plus the power/thermal/DTM model
 * on a free helper. Its core stage does the side stage's work itself
 * while the side index waits for a helper, so a saturated pool runs it
 * inline rather than waiting.
 */

#ifndef THERMCTL_COMMON_PARALLEL_HH
#define THERMCTL_COMMON_PARALLEL_HH

#include <cstddef>
#include <cstdint>
#include <functional>

namespace thermctl
{

/**
 * Run fn(i) once for every i in [0, n); return when all have finished.
 *
 * Which thread runs an index is unspecified, so fn(i) must touch only
 * state owned by index i (or synchronise itself). Everything fn wrote
 * is visible to the caller on return. The first exception thrown by
 * any fn(i) is rethrown here after every started index has returned;
 * indices not yet started when it was thrown are skipped.
 *
 * At most `width` threads, the caller included, run fn at once for
 * this call (a width of 0 counts as 1); helpers beyond it stay free for
 * other callers.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
                 std::size_t width = SIZE_MAX);

/** The CPU the calling thread is running on, or -1 where unknown. */
int currentCpu();

/**
 * A scheduling hint for a thread that works beside another one: when the
 * calling thread runs on `cpu` and may run on another CPU, move it there.
 * Its CPU affinity is the same on return. A pool helper woken to work
 * beside its caller can land on the caller's CPU and stay there, each
 * thread waiting on the other.
 */
void moveOffCpu(int cpu);

} // namespace thermctl

#endif // THERMCTL_COMMON_PARALLEL_HH
