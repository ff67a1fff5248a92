// Fork-join pool for the two computations big enough to spread across
// cores: Service::run_batch (one request, or one spec's tuple menus, per
// task) and the tuple-menu passes in opt/tuple_menu.cc (bound_menus, the
// solve waves), which run inline inside a batch worker, or fork when
// run_batch serves a frontier spec on its own thread.  Every other
// sweep in the library — Section 4 delay ladders, Section 5 size sweeps,
// option tables, Pareto filters — is a few milliseconds of work and runs
// as a plain loop (docs/MODELING.md §9).
//
// `parallel_for` hands out an index range one index at a time: persistent
// worker threads claim the next index from an atomic counter
// (self-scheduling).  Both callers run few, uneven tasks — a request, a
// menu — so one index per claim balances them without a chunking knob.
// The calling thread always participates, so `threads == 1` degrades to a
// plain serial loop with zero pool traffic.
//
// Determinism contract:
//  * `parallel_map` writes result i from task i — output order is index
//    order regardless of thread count or claim schedule.
//  * Nested calls are rejected: a `parallel_for` issued from inside a
//    worker runs inline and serially on that worker (no oversubscription,
//    no deadlock, and the task keeps exclusive use of any thread-local
//    state its caller installed).
//
// Error contract: the exception at the LOWEST failing index is captured
// via std::exception_ptr and rethrown on the calling thread after the
// region drains — exactly the error a serial loop would have hit first, so
// typed nanocache::Error values cross the pool with their ErrorCategory
// intact and the propagated error is byte-identical at any thread count.
// Work at indices above an already-recorded failure is cancelled (the
// serial loop would never have reached it); work below always runs to the
// failure, which is what makes the lowest-index guarantee exact rather
// than best-effort.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

namespace nanocache::par {

/// Hardware concurrency, never less than 1.
int hardware_threads();

/// Set the process-wide default thread count used when a call site passes
/// `threads == 0`.  `n == 0` restores the built-in default (the
/// NANOCACHE_THREADS environment variable if set, else hardware
/// concurrency).  Throws Error(kConfig) for negative counts.
void set_default_threads(int n);

/// The resolved process-wide default thread count (>= 1).  Throws
/// Error(kConfig) when NANOCACHE_THREADS is set but malformed or outside
/// [1, 1024] — a bad explicit setting is surfaced, never silently replaced
/// by hardware concurrency.  (Counts above the pool's internal cap of 64
/// are valid and clamp to it.)
int default_threads();

/// True while the calling thread is executing inside a parallel region
/// (its own or one it joined as a worker).  Nested parallel calls made in
/// this state run serially inline.
bool in_parallel_region();

/// RAII guard forcing every parallel call issued from the current thread
/// to run serially for the guard's lifetime.  The server holds one while a
/// connection thread answers a line: concurrency there comes from the
/// connections, not from forking inside a request.
class SerialRegionGuard {
 public:
  SerialRegionGuard();
  ~SerialRegionGuard();
  SerialRegionGuard(const SerialRegionGuard&) = delete;
  SerialRegionGuard& operator=(const SerialRegionGuard&) = delete;
};

namespace detail {

/// Type-erased region body: `invoke(ctx, i)` runs index i.  A raw function
/// pointer + context pointer instead of std::function keeps the per-index
/// dispatch to one indirect call with no allocation or virtual-table hop.
using RawBody = void (*)(void*, std::size_t);

/// Resolves `threads` in place (0 -> default_threads(), clamped to the
/// pool cap) and decides whether the region must run serially: single
/// thread, degenerate range, or nested call.
bool use_serial(std::size_t n, int& threads);

/// Bumps the parallel.serial_regions counter (cached reference inside).
void count_serial_region();

/// Parallel path: run [0, n) on the pool, one index per claim.  Rethrows
/// the lowest-index failure.
void run_region(std::size_t n, RawBody invoke, void* ctx, int threads);

}  // namespace detail

/// Run `body(i)` for every i in [0, n) over `threads` threads
/// (0 = default_threads()).  Runs serially when n < 2, threads == 1, or
/// the caller is already inside a parallel region — the serial path never
/// changes results, only scheduling (see the determinism contract above).
/// `body` is invoked through a per-region function pointer, not a
/// std::function, so lambdas run with zero per-index type-erasure cost.
template <typename Body>
void parallel_for(std::size_t n, Body&& body, int threads = 0) {
  if (n == 0) return;
  if (detail::use_serial(n, threads)) {
    detail::count_serial_region();
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  using B = std::remove_reference_t<Body>;
  detail::run_region(
      n,
      [](void* ctx, std::size_t i) { (*static_cast<B*>(ctx))(i); },
      const_cast<void*>(
          static_cast<const void*>(std::addressof(body))),
      threads);
}

/// Map [0, n) through `fn`, returning results in index order.  The result
/// type must be default-constructible.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn, int threads = 0)
    -> std::vector<decltype(fn(std::size_t{}))> {
  std::vector<decltype(fn(std::size_t{}))> out(n);
  parallel_for(n, [&](std::size_t i) { out[i] = fn(i); }, threads);
  return out;
}

}  // namespace nanocache::par
