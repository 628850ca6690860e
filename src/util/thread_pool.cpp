#include "util/thread_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <cassert>

namespace fairshare::util {

namespace {

// CPUs the calling thread may run on.  hardware_concurrency() counts every
// online CPU on some glibc versions even under taskset or a cpuset, which
// would oversubscribe a pinned process.
std::size_t usable_cpus() {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof mask, &mask) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&mask));
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = usable_cpus();
  // The caller participates in parallel_for, so the worker cap is
  // threads - 1.  Nothing spawns here: workers appear on demand.
  limit_ = threads - 1;
  workers_.reserve(limit_);
}

void ThreadPool::spawn_up_to_locked(std::size_t want) {
  if (stop_) return;
  want = std::min(want, limit_);
  while (workers_.size() < want)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::grab_and_run() {
  std::size_t job;
  const std::function<void(std::size_t)>* fn;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fn_ == nullptr || next_job_ >= jobs_) return false;
    job = next_job_++;
    fn = fn_;
  }
  (*fn)(job);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (++completed_ == jobs_) done_.notify_all();
  }
  return true;
}

void ThreadPool::worker_loop() {
  std::size_t seen_generation = 0;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++idle_;
      wake_.wait(lock, [&] {
        return stop_ || !tasks_.empty() ||
               (fn_ != nullptr && generation_ != seen_generation &&
                next_job_ < jobs_);
      });
      --idle_;
      if (stop_) return;
      if (fn_ != nullptr && generation_ != seen_generation &&
          next_job_ < jobs_) {
        seen_generation = generation_;
      } else {
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
    }
    if (task) {
      task();
      continue;
    }
    while (grab_and_run()) {
    }
  }
}

void ThreadPool::submit(std::function<void()> task) {
  assert(limit_ > 0 && "submit() needs at least one worker thread");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
    // Every queued task should have an idle worker lined up; grow toward
    // the cap only when demand outruns the supply.
    if (idle_ < tasks_.size())
      spawn_up_to_locked(workers_.size() + (tasks_.size() - idle_));
  }
  wake_.notify_one();
}

void ThreadPool::parallel_for(std::size_t jobs,
                              const std::function<void(std::size_t)>& fn) {
  if (jobs == 0) return;
  if (jobs == 1 || limit_ == 0) {
    for (std::size_t i = 0; i < jobs; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    assert(fn_ == nullptr && "nested parallel_for is not supported");
    // The batch is a barrier with known demand: make sure enough workers
    // exist for every job to run concurrently with the caller.
    spawn_up_to_locked(jobs - 1);
    fn_ = &fn;
    jobs_ = jobs;
    next_job_ = 0;
    completed_ = 0;
    ++generation_;
  }
  wake_.notify_all();
  while (grab_and_run()) {
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return completed_ == jobs_; });
    fn_ = nullptr;
  }
}

}  // namespace fairshare::util
