// Minimal blocking thread pool for data-parallel row operations and
// fire-and-forget tasks.
//
// The decoder's cost is dominated by axpy over m-symbol payload rows
// (Table II's O(m k^2) term).  Rows are independent byte ranges, so the
// work splits perfectly; ParallelFor gives the Gaussian-elimination
// kernels an easy fan-out without per-call thread spawning.  submit()
// additionally lets long-lived owners (net::PeerServer's session handlers)
// run detached tasks on the same fixed worker set, which caps their
// concurrency at the pool size.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fairshare::util {

/// Bounded worker pool.  parallel_for blocks the caller until every
/// chunk has run; nested parallel_for from inside a task is not supported.
///
/// Workers spawn lazily: construction costs no threads, and threads come
/// into existence only when outstanding work exceeds the idle supply (up
/// to the construction-time cap).  A server that sizes its pool for a
/// worst-case session count therefore pays for the sessions it actually
/// has, which matters on small machines running many servers.
class ThreadPool {
 public:
  /// Capacity of `threads` (>= 1).  0 selects the number of CPUs in the
  /// calling thread's affinity mask (hardware_concurrency if that cannot
  /// be read).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (worker cap + the participating caller).
  std::size_t size() const { return limit_ + 1; }

  /// Invoke fn(i) for every i in [0, jobs), distributed over the pool
  /// (the calling thread participates).  Blocks until all complete.
  void parallel_for(std::size_t jobs,
                    const std::function<void(std::size_t)>& fn);

  /// Enqueue a fire-and-forget task for the workers (the caller does not
  /// participate, so the pool needs >= 2 threads).  Tasks may block for a
  /// long time; at most workers() tasks run at once.  Destruction joins
  /// running tasks but discards ones still queued.
  void submit(std::function<void()> task);

  /// Worker threads available to submit().
  std::size_t workers() const { return limit_; }

 private:
  void worker_loop();
  bool grab_and_run();
  void spawn_up_to_locked(std::size_t want);

  std::size_t limit_ = 0;
  std::size_t idle_ = 0;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::deque<std::function<void()>> tasks_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t jobs_ = 0;
  std::size_t next_job_ = 0;
  std::size_t completed_ = 0;
  std::size_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace fairshare::util
