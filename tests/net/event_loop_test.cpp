// The reactor's moving parts in isolation: util::TimerWheel expiry
// semantics driven by a hand-held clock, and net::EventLoop's epoll +
// eventfd + wheel composition — cross-thread wakeups, deadline ordering,
// periodic rearming, and fd registrations that outlive their fds.
#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "util/timer_wheel.hpp"

namespace fairshare {
namespace {

using util::TimerWheel;

constexpr std::uint64_t kMs = 1'000'000;  // ns per ms

std::vector<TimerWheel::Callback> pop(TimerWheel& wheel, std::uint64_t now) {
  std::vector<TimerWheel::Callback> due;
  wheel.advance(now, due);
  return due;
}

TEST(TimerWheelTest, ExpiresInDeadlineOrderAcrossBuckets) {
  TimerWheel wheel;
  std::vector<int> fired;
  // Armed out of order; two share a deadline to pin the arming-order
  // tiebreak.
  wheel.add(5 * kMs, [&] { fired.push_back(5); });
  wheel.add(1 * kMs, [&] { fired.push_back(1); });
  wheel.add(3 * kMs, [&] { fired.push_back(3); });
  wheel.add(3 * kMs, [&] { fired.push_back(4); });
  EXPECT_EQ(wheel.size(), 4u);
  EXPECT_EQ(wheel.next_deadline_ns(), 1 * kMs);

  auto due = pop(wheel, 10 * kMs);
  for (auto& cb : due) cb();
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 4, 5}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, AdvanceStopsAtNotYetDueEntries) {
  TimerWheel wheel;
  int fired = 0;
  wheel.add(2 * kMs, [&] { ++fired; });
  wheel.add(8 * kMs, [&] { ++fired; });

  auto due = pop(wheel, 5 * kMs);
  EXPECT_EQ(due.size(), 1u);
  EXPECT_EQ(wheel.size(), 1u);
  EXPECT_EQ(wheel.next_deadline_ns(), 8 * kMs);

  due = pop(wheel, 8 * kMs);  // boundary: deadline <= now expires
  EXPECT_EQ(due.size(), 1u);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, CancelDisarmsExactlyOnce) {
  TimerWheel wheel;
  bool fired = false;
  const TimerWheel::TimerId id = wheel.add(2 * kMs, [&] { fired = true; });
  wheel.add(2 * kMs, [] {});  // neighbour in the same bucket survives

  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_FALSE(wheel.cancel(id));          // double-cancel
  EXPECT_FALSE(wheel.cancel(TimerWheel::TimerId{0}));  // never valid
  EXPECT_FALSE(wheel.cancel(9999));        // never armed

  auto due = pop(wheel, 10 * kMs);
  EXPECT_EQ(due.size(), 1u);
  EXPECT_FALSE(fired);
}

TEST(TimerWheelTest, DeadlineARotationAheadWaitsItsTurn) {
  // 256 slots x 1 ms tick = one rotation every 256 ms.  A deadline 300 ms
  // out hashes into a bucket the cursor passes long before the deadline;
  // the entry must ride the wheel around instead of firing early.
  TimerWheel wheel;
  bool fired = false;
  wheel.add(300 * kMs, [&] { fired = true; });

  auto due = pop(wheel, 299 * kMs);  // sweeps every bucket at least once
  EXPECT_TRUE(due.empty());
  EXPECT_EQ(wheel.size(), 1u);

  due = pop(wheel, 301 * kMs);
  ASSERT_EQ(due.size(), 1u);
  due[0]();
  EXPECT_TRUE(fired);
}

TEST(TimerWheelTest, ArmingInThePastFiresOnNextAdvance) {
  // The reactor arms retry timers from retry_after() deadlines that may
  // already have elapsed; those must surface on the very next advance,
  // not a rotation later.
  TimerWheel wheel;
  (void)pop(wheel, 500 * kMs);  // cursor well past the deadline below
  bool fired = false;
  wheel.add(100 * kMs, [&] { fired = true; });

  auto due = pop(wheel, 500 * kMs + 1);
  ASSERT_EQ(due.size(), 1u);
  due[0]();
  EXPECT_TRUE(fired);
}

namespace {
using net::EventLoop;
}  // namespace

TEST(EventLoopTest, EpollIsAvailableOnLinux) {
  EventLoop loop("test");
  EXPECT_TRUE(loop.valid());  // epoll instance + eventfd both created
}

TEST(EventLoopTest, TimersFireInDeadlineOrder) {
  EventLoop loop("test");
  ASSERT_TRUE(loop.valid());
  std::vector<int> order;
  loop.post([&] {
    // Armed shortest-last: ordering must come from deadlines, not arming.
    loop.add_timer_after(30 * kMs, [&] {
      order.push_back(3);
      loop.stop();
    });
    loop.add_timer_after(20 * kMs, [&] { order.push_back(2); });
    loop.add_timer_after(10 * kMs, [&] { order.push_back(1); });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTest, PostFromAnotherThreadWakesASleepingLoop) {
  EventLoop loop("test");
  ASSERT_TRUE(loop.valid());
  std::atomic<bool> ran{false};
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    loop.post([&] {
      ran = true;
      loop.stop();
    });
  });
  const auto t0 = std::chrono::steady_clock::now();
  loop.run();  // no fds, no timers: parked in epoll_wait until woken
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  waker.join();
  EXPECT_TRUE(ran.load());
  // The eventfd wakeup must beat any fallback poll interval by a mile.
  EXPECT_LT(elapsed, std::chrono::milliseconds(400));
}

TEST(EventLoopTest, FdReadinessDispatchesToItsCallback) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EventLoop loop("test");
  ASSERT_TRUE(loop.valid());
  std::string received;
  loop.post([&] {
    ASSERT_TRUE(loop.add_fd(fds[0], EPOLLIN, [&](std::uint32_t events) {
      EXPECT_TRUE(events & EPOLLIN);
      char buf[16];
      const ssize_t n = ::read(fds[0], buf, sizeof buf);
      ASSERT_GT(n, 0);
      received.assign(buf, static_cast<std::size_t>(n));
      loop.stop();
    }));
  });
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_EQ(::write(fds[1], "ping", 4), 4);
  });
  loop.run();
  writer.join();
  EXPECT_EQ(received, "ping");
  EXPECT_EQ(loop.fd_count(), 1u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoopTest, CloseWhileTimerArmedThenRemoveFdIsSafe) {
  // A session that dies by fault injection closes its fd while its retry
  // timer is still armed; the teardown path then calls remove_fd on the
  // already-closed fd.  Neither step may crash or wedge the loop.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EventLoop loop("test");
  ASSERT_TRUE(loop.valid());
  int timer_fired = 0;
  loop.post([&] {
    ASSERT_TRUE(loop.add_fd(fds[0], EPOLLIN, [](std::uint32_t) {}));
    loop.add_timer_after(10 * kMs, [&] {
      ++timer_fired;
      ::close(fds[0]);        // fd dies while still registered
      loop.remove_fd(fds[0]);  // EPOLL_CTL_DEL on a closed fd: ignored
      loop.add_timer_after(5 * kMs, [&] {  // loop keeps ticking after
        ++timer_fired;
        loop.stop();
      });
    });
  });
  loop.run();
  ::close(fds[1]);
  EXPECT_EQ(timer_fired, 2);
  EXPECT_EQ(loop.fd_count(), 0u);
}

TEST(EventLoopTest, PeriodicRearmsUntilCancelled) {
  EventLoop loop("test");
  ASSERT_TRUE(loop.valid());
  int count = 0;
  loop.post([&] {
    // The callback cancels its own periodic — the reactor's pacing tick
    // does the same at shutdown.
    auto id = std::make_shared<EventLoop::TimerId>();
    *id = loop.add_periodic(5 * kMs, [&, id] {
      if (++count == 4) {
        EXPECT_TRUE(loop.cancel_timer(*id));
        loop.stop();
      }
    });
  });
  loop.run();
  EXPECT_EQ(count, 4);
}

TEST(EventLoopTest, StopDropsPendingWorkAndRunReturns) {
  EventLoop loop("test");
  ASSERT_TRUE(loop.valid());
  bool late_fired = false;
  loop.post([&] {
    loop.add_timer_after(3600ull * 1000 * kMs, [&] { late_fired = true; });
    loop.stop();
  });
  loop.run();  // must return promptly despite the hour-out timer
  EXPECT_FALSE(late_fired);
  EXPECT_FALSE(loop.running());
}

}  // namespace
}  // namespace fairshare
