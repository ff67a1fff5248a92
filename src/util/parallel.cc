#include "util/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <string>
#include <thread>

#include "util/error.h"
#include "util/metrics.h"

namespace nanocache::par {

namespace {

std::atomic<int> g_default_threads{0};  // 0 = unset, fall through to env/hw
thread_local int tl_region_depth = 0;
/// Pool worker index of the current thread (0 = a caller thread), for the
/// per-worker claim counters (`chunks_claimed`: one index per claim).
thread_local int tl_worker_id = 0;

metrics::Counter& worker_claim_counter() {
  // One counter per worker identity.  Worker ids are dense and small
  // (<= kMaxThreads), so the name set is bounded; the reference is cached
  // per thread so steady state is one atomic add per claim.
  thread_local metrics::Counter* counter =
      &metrics::Registry::instance().counter(
          "parallel.worker." + std::to_string(tl_worker_id) +
          ".chunks_claimed");
  return *counter;
}

int env_threads() {
  const char* s = std::getenv("NANOCACHE_THREADS");
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  NC_REQUIRE(end != s && *end == '\0',
             "NANOCACHE_THREADS must be an integer thread count, got '" +
                 std::string(s) + "'");
  NC_REQUIRE(v >= 1 && v <= 1024,
             "NANOCACHE_THREADS must be in [1, 1024], got '" + std::string(s) +
                 "'");
  return static_cast<int>(v);
}

/// One fork-join region: workers claim indices from `next` until the range
/// drains or an index fails.
///
/// Error determinism: `error_bound` is the lowest failing index recorded so
/// far (SIZE_MAX while none).  Workers stop claiming once the next index is
/// at or above the bound.  Claims come in increasing index order, so an
/// index is only skipped when the serial loop would never have reached it —
/// every index below the globally lowest failure runs, that failure is
/// recorded, and the propagated error is byte-identical to the serial run
/// at any thread count.
struct Region {
  std::size_t n = 0;
  detail::RawBody invoke = nullptr;
  void* ctx = nullptr;

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> error_bound{
      std::numeric_limits<std::size_t>::max()};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();

  void record_failure(std::size_t i) {
    {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (i < error_index) {
        error_index = i;
        error = std::current_exception();
      }
    }
    std::size_t cur = error_bound.load(std::memory_order_relaxed);
    while (i < cur && !error_bound.compare_exchange_weak(
                          cur, i, std::memory_order_relaxed)) {
    }
  }

  void run_indices() {
    auto& claims = worker_claim_counter();
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || i >= error_bound.load(std::memory_order_relaxed)) return;
      claims.add(1);
      try {
        invoke(ctx, i);
      } catch (...) {
        record_failure(i);
        // Every unclaimed index lies above i; nothing left to do.
        return;
      }
    }
  }
};

/// Persistent worker pool.  Workers sleep on a condition variable and join
/// the active region when one is published; the spawning thread always
/// participates and waits for every joined worker to leave before the
/// region object (stack-allocated in parallel_for) dies.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(Region& region, int threads) {
    // One region at a time: concurrent top-level calls from distinct user
    // threads serialize here instead of clobbering region_.
    std::lock_guard<std::mutex> run_lock(run_mutex_);
    ensure_workers(threads - 1);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      region_ = &region;
      active_ = 0;
      ++generation_;
    }
    work_cv_.notify_all();
    ++tl_region_depth;
    region.run_indices();
    --tl_region_depth;
    std::unique_lock<std::mutex> lock(mutex_);
    region_ = nullptr;  // late wakers must not join a drained region
    done_cv_.wait(lock, [&] { return active_ == 0; });
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

 private:
  Pool() = default;

  void ensure_workers(int needed) {
    std::lock_guard<std::mutex> lock(mutex_);
    while (static_cast<int>(workers_.size()) < needed) {
      const int worker_id = static_cast<int>(workers_.size()) + 1;
      workers_.emplace_back([this, worker_id] {
        tl_worker_id = worker_id;
        worker_loop();
      });
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      Region* region = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock,
                      [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_) return;
        seen = generation_;
        if (region_ == nullptr) continue;  // region already drained
        region = region_;
        ++active_;
      }
      ++tl_region_depth;
      region->run_indices();
      --tl_region_depth;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --active_;
      }
      done_cv_.notify_all();
    }
  }

  std::mutex run_mutex_;  // serializes top-level regions
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  Region* region_ = nullptr;  // guarded by mutex_
  int active_ = 0;            // workers currently inside region_
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
};

constexpr int kMaxThreads = 64;

}  // namespace

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void set_default_threads(int n) {
  NC_REQUIRE(n >= 0, "thread count must be >= 0 (0 restores the default)");
  g_default_threads.store(n > kMaxThreads ? kMaxThreads : n,
                          std::memory_order_relaxed);
}

int default_threads() {
  const int n = g_default_threads.load(std::memory_order_relaxed);
  if (n > 0) return n;
  const int e = env_threads();
  if (e > 0) return e > kMaxThreads ? kMaxThreads : e;
  return hardware_threads();
}

bool in_parallel_region() { return tl_region_depth > 0; }

SerialRegionGuard::SerialRegionGuard() { ++tl_region_depth; }
SerialRegionGuard::~SerialRegionGuard() { --tl_region_depth; }

namespace detail {

bool use_serial(std::size_t n, int& threads) {
  if (threads == 0) threads = default_threads();
  NC_REQUIRE(threads >= 1, "parallel_for thread count must be >= 1");
  if (threads > kMaxThreads) threads = kMaxThreads;
  // Serial paths: single thread requested, a degenerate range, or a nested
  // call from inside a worker (rejected from parallelism, run inline).
  return threads == 1 || n == 1 || tl_region_depth > 0;
}

void count_serial_region() {
  static auto& serial_regions =
      metrics::Registry::instance().counter("parallel.serial_regions");
  serial_regions.add(1);
}

void run_region(std::size_t n, RawBody invoke, void* ctx, int threads) {
  Region region;
  region.n = n;
  region.invoke = invoke;
  region.ctx = ctx;
  const int workers =
      n < static_cast<std::size_t>(threads) ? static_cast<int>(n) : threads;
  {
    auto& registry = metrics::Registry::instance();
    static auto& regions = registry.counter("parallel.regions");
    static auto& fanout = registry.histogram("parallel.region_fanout");
    static auto& peak_fanout = registry.gauge("parallel.peak_fanout");
    regions.add(1);
    fanout.observe(static_cast<std::uint64_t>(workers));
    peak_fanout.record_max(workers);
  }
  Pool::instance().run(region, workers);
  if (region.error) std::rethrow_exception(region.error);
}

}  // namespace detail

}  // namespace nanocache::par
