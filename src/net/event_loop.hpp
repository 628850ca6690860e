// One-thread epoll reactor: fd readiness + timer wheel + cross-thread
// tasks behind a single epoll_wait.
//
// The paper's peers do zero coding work (coefficients never leave the
// owner), so a live peer session is pure paced byte-shoveling — the
// canonical event-loop workload.  One EventLoop owns every session fd of
// a PeerServer shard: readiness callbacks drive the per-session state
// machines, the util::TimerWheel carries the Eq. (2) pacing tick plus all
// per-session deadlines, and an eventfd lets other threads post work or
// stop the loop without signals or polling.
//
// Threading contract:
//  * run() turns the calling thread into the loop thread; every fd/timer
//    method below is loop-thread-only (they touch unlocked state);
//  * post() and stop() are the two thread-safe entry points — both wake a
//    sleeping epoll_wait through the eventfd;
//  * callbacks run on the loop thread and may freely add/modify/remove
//    fds and timers, including their own.
//
// Dispatch robustness: events are delivered by fd lookup at dispatch time,
// so a callback that removes another fd in the same batch simply makes the
// stale event a no-op.  A closed-and-recycled fd inside one batch can at
// worst hand the new registration a spurious readiness event — callbacks
// must (and here always do) treat readiness as a hint, not a guarantee.
//
// Observability (labels loop=<name>): fairshare_loop_tick_ns histogram
// (work per wakeup), fairshare_loop_ready_depth gauge (events per
// epoll_wait), fairshare_loop_fds gauge, fairshare_loop_busy_ns_total /
// fairshare_loop_wait_ns_total counters (their ratio is loop saturation),
// and fairshare_loop_wakeups_total.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "util/timer_wheel.hpp"

namespace fairshare::net {

class EventLoop {
 public:
  using FdCallback = std::function<void(std::uint32_t epoll_events)>;
  using TimerId = util::TimerWheel::TimerId;

  /// `name` labels this loop's metric series; `registry` null = global.
  explicit EventLoop(std::string name = "0",
                     obs::MetricsRegistry* registry = nullptr);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// False when the epoll/eventfd instances could not be created; run()
  /// returns immediately in that case.
  bool valid() const { return epoll_fd_ >= 0 && wake_fd_ >= 0; }

  /// Run until stop(): the caller becomes the loop thread.
  void run();
  /// Request exit (thread-safe, idempotent).  run() returns after the
  /// current dispatch batch; pending timers/tasks are dropped unrun.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// True on the loop thread (valid once run() started).
  bool in_loop_thread() const {
    return std::this_thread::get_id() == loop_thread_;
  }

  // ------------------------------------------------------------ fds
  /// Register `fd` for `events` (EPOLLIN/EPOLLOUT/...; level-triggered).
  /// One callback per fd; re-adding an fd replaces its registration.
  bool add_fd(int fd, std::uint32_t events, FdCallback cb);
  /// Change the interest set of a registered fd.
  bool modify_fd(int fd, std::uint32_t events);
  /// Forget `fd`.  Safe after the fd was closed (EPOLL_CTL_DEL failures
  /// are ignored — the kernel already dropped closed fds).
  void remove_fd(int fd);
  std::size_t fd_count() const { return fds_.size(); }

  // ---------------------------------------------------------- timers
  /// One-shot timer at absolute steady-clock `deadline_ns`
  /// (obs::monotonic_ns() scale).  Loop-thread-only; from elsewhere, wrap
  /// in post().
  TimerId add_timer_at(std::uint64_t deadline_ns, std::function<void()> cb);
  /// One-shot timer `delay_ns` from now.
  TimerId add_timer_after(std::uint64_t delay_ns, std::function<void()> cb);
  /// Repeating timer every `period_ns` (first fire one period from now).
  /// Cancel with the returned id.  Rearms by deadline += period, so the
  /// average rate does not drift with dispatch latency.
  TimerId add_periodic(std::uint64_t period_ns, std::function<void()> cb);
  bool cancel_timer(TimerId id);

  // ----------------------------------------------------------- tasks
  /// Queue `fn` to run on the loop thread (thread-safe; wakes the loop).
  /// Callable before run() — tasks run once the loop starts.
  void post(std::function<void()> fn);

 private:
  struct FdEntry {
    FdCallback cb;
    std::uint32_t events = 0;
  };
  struct PeriodicState;

  void wake();
  void drain_wake_fd();
  void fire_periodic(const std::shared_ptr<PeriodicState>& state);
  int wait_timeout_ms() const;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread::id loop_thread_;

  // shared_ptr so a callback replacing or removing its own registration
  // mid-dispatch never frees the closure it is executing from.
  std::unordered_map<int, std::shared_ptr<FdEntry>> fds_;  // loop thread only
  util::TimerWheel wheel_;                // loop thread only
  std::unordered_map<TimerId, std::shared_ptr<PeriodicState>> periodics_;

  mutable std::mutex post_mutex_;
  std::vector<std::function<void()>> posted_;

  // Scratch reused across iterations (no per-tick allocation in steady
  // state).
  std::vector<util::TimerWheel::Callback> expired_;
  std::vector<std::function<void()>> running_tasks_;

  obs::MetricsRegistry* registry_;
  obs::Histogram* m_tick_ns_;
  obs::Gauge* m_ready_depth_;
  obs::Gauge* m_fds_;
  obs::Counter* m_busy_ns_;
  obs::Counter* m_wait_ns_;
  obs::Counter* m_wakeups_;
};

}  // namespace fairshare::net
