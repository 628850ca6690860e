#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "obs/trace.hpp"

namespace fairshare::net {

struct EventLoop::PeriodicState {
  std::uint64_t period_ns = 0;
  std::uint64_t deadline_ns = 0;
  std::function<void()> cb;
  TimerId wheel_id = 0;  ///< the currently armed one-shot
  bool cancelled = false;
};

EventLoop::EventLoop(std::string name, obs::MetricsRegistry* registry)
    : registry_(registry ? registry : &obs::MetricsRegistry::global()) {
  const obs::LabelList labels = {{"loop", std::move(name)}};
  m_tick_ns_ = &registry_->histogram("fairshare_loop_tick_ns", labels);
  m_ready_depth_ = &registry_->gauge("fairshare_loop_ready_depth", labels);
  m_fds_ = &registry_->gauge("fairshare_loop_fds", labels);
  m_busy_ns_ = &registry_->counter("fairshare_loop_busy_ns_total", labels);
  m_wait_ns_ = &registry_->counter("fairshare_loop_wait_ns_total", labels);
  m_wakeups_ = &registry_->counter("fairshare_loop_wakeups_total", labels);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ >= 0 && wake_fd_ >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  }
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::wake() {
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(wake_fd_, &one, sizeof(one));  // EAGAIN = already pending
  }
}

void EventLoop::drain_wake_fd() {
  std::uint64_t count = 0;
  while (::read(wake_fd_, &count, sizeof(count)) > 0) {
  }
}

void EventLoop::stop() {
  stop_requested_.store(true, std::memory_order_release);
  wake();
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    posted_.push_back(std::move(fn));
  }
  wake();
}

bool EventLoop::add_fd(int fd, std::uint32_t events, FdCallback cb) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  const int op =
      fds_.count(fd) != 0 ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (::epoll_ctl(epoll_fd_, op, fd, &ev) != 0 &&
      !(op == EPOLL_CTL_ADD && errno == EEXIST &&
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0))
    return false;
  auto entry = std::make_shared<FdEntry>();
  entry->cb = std::move(cb);
  entry->events = events;
  fds_[fd] = std::move(entry);
  m_fds_->set(static_cast<double>(fds_.size()));
  return true;
}

bool EventLoop::modify_fd(int fd, std::uint32_t events) {
  const auto it = fds_.find(fd);
  if (it == fds_.end()) return false;
  if (it->second->events == events) return true;
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) return false;
  it->second->events = events;
  return true;
}

void EventLoop::remove_fd(int fd) {
  if (fds_.erase(fd) == 0) return;
  // The fd may already be closed (fault-injected reset, peer teardown):
  // the kernel dropped it from the epoll set on close, so EBADF/ENOENT
  // here is the expected aftermath, not an error.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  m_fds_->set(static_cast<double>(fds_.size()));
}

EventLoop::TimerId EventLoop::add_timer_at(std::uint64_t deadline_ns,
                                           std::function<void()> cb) {
  return wheel_.add(deadline_ns, std::move(cb));
}

EventLoop::TimerId EventLoop::add_timer_after(std::uint64_t delay_ns,
                                              std::function<void()> cb) {
  return wheel_.add(obs::monotonic_ns() + delay_ns, std::move(cb));
}

EventLoop::TimerId EventLoop::add_periodic(std::uint64_t period_ns,
                                           std::function<void()> cb) {
  auto state = std::make_shared<PeriodicState>();
  state->period_ns = period_ns ? period_ns : 1;
  state->deadline_ns = obs::monotonic_ns() + state->period_ns;
  state->cb = std::move(cb);
  // The public id is the FIRST wheel id; it stays valid across rearms
  // through the periodics_ table.
  state->wheel_id =
      wheel_.add(state->deadline_ns, [this, state] { fire_periodic(state); });
  const TimerId public_id = state->wheel_id;
  periodics_.emplace(public_id, state);
  return public_id;
}

void EventLoop::fire_periodic(const std::shared_ptr<PeriodicState>& state) {
  if (state->cancelled) return;
  state->cb();
  if (state->cancelled) return;  // cb may cancel its own timer
  const std::uint64_t now = obs::monotonic_ns();
  state->deadline_ns += state->period_ns;
  if (state->deadline_ns <= now)  // fell behind: skip ticks, don't burst
    state->deadline_ns = now + state->period_ns;
  state->wheel_id =
      wheel_.add(state->deadline_ns, [this, state] { fire_periodic(state); });
}

bool EventLoop::cancel_timer(TimerId id) {
  const auto it = periodics_.find(id);
  if (it != periodics_.end()) {
    it->second->cancelled = true;
    wheel_.cancel(it->second->wheel_id);
    periodics_.erase(it);
    return true;
  }
  return wheel_.cancel(id);
}

int EventLoop::wait_timeout_ms() const {
  {
    // Pending posted work: don't sleep at all.  (The eventfd would wake
    // us anyway; this avoids even entering the kernel sleep.)
    std::lock_guard<std::mutex> lock(post_mutex_);
    if (!posted_.empty()) return 0;
  }
  const auto next = wheel_.next_deadline_ns();
  if (!next) return 500;  // defensive cap; eventfd covers real wakeups
  const std::uint64_t now = obs::monotonic_ns();
  if (*next <= now) return 0;
  const std::uint64_t delta_ms = (*next - now + 999'999) / 1'000'000;
  return static_cast<int>(std::min<std::uint64_t>(delta_ms, 500));
}

void EventLoop::run() {
  if (!valid()) return;
  loop_thread_ = std::this_thread::get_id();
  running_.store(true, std::memory_order_release);
  epoll_event events[128];
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const std::uint64_t wait_t0 = obs::monotonic_ns();
    const int n =
        ::epoll_wait(epoll_fd_, events, 128, wait_timeout_ms());
    const std::uint64_t t0 = obs::monotonic_ns();
    m_wait_ns_->add(t0 - wait_t0);
    m_wakeups_->add(1);
    if (n > 0) m_ready_depth_->set(static_cast<double>(n));
    if (stop_requested_.load(std::memory_order_acquire)) break;

    // 1. timers due now (pacing ticks, deadlines, delay releases)
    expired_.clear();
    wheel_.advance(t0, expired_);
    for (auto& cb : expired_) cb();

    // 2. fd readiness — look each fd up at dispatch time so a callback
    // removing a sibling in the same batch makes its event a no-op
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        drain_wake_fd();
        continue;
      }
      const auto it = fds_.find(fd);
      if (it == fds_.end()) continue;
      const std::shared_ptr<FdEntry> entry = it->second;  // keep alive
      entry->cb(events[i].events);
      if (stop_requested_.load(std::memory_order_acquire)) break;
    }

    // 3. cross-thread tasks
    {
      std::lock_guard<std::mutex> lock(post_mutex_);
      running_tasks_.swap(posted_);
    }
    for (auto& task : running_tasks_) task();
    running_tasks_.clear();

    const std::uint64_t busy = obs::monotonic_ns() - t0;
    m_busy_ns_->add(busy);
    m_tick_ns_->record(busy);
  }
  running_.store(false, std::memory_order_release);
}

}  // namespace fairshare::net
