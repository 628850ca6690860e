// Thread pool and parallel row kernels.
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "linalg/parallel_ops.hpp"
#include "linalg/progressive.hpp"
#include "sim/rng.hpp"
#include "util/thread_pool.hpp"

namespace fairshare {
namespace {

TEST(ThreadPool, RunsEveryJobExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroSizesFromTheAffinityMask) {
  // Pin this thread to one of its CPUs: a default-sized pool must then
  // have one thread, not one per CPU on the host.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  const std::size_t pinned = util::ThreadPool(0).size();
  ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(util::ThreadPool(0).size(),
            static_cast<std::size_t>(CPU_COUNT(&saved)));
}

TEST(ThreadPool, ZeroJobsIsNoOp) {
  util::ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL(); });
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  util::ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&](std::size_t i) {
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, ReusableAcrossManyRounds) {
  util::ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(17, [&](std::size_t) { ++count; });
    ASSERT_EQ(count.load(), 17) << "round " << round;
  }
}

TEST(ThreadPool, SubmitRunsEveryDetachedTask) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 3u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) pool.submit([&] { ++ran; });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ran.load() < 64 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, SubmitCoexistsWithParallelFor) {
  util::ThreadPool pool(4);
  std::atomic<int> tasks{0};
  std::atomic<bool> release{false};
  // Two long-lived tasks occupy workers while parallel_for still completes
  // (the caller participates, so it cannot starve).
  for (int i = 0; i < 2; ++i)
    pool.submit([&] {
      while (!release.load()) std::this_thread::sleep_for(
          std::chrono::milliseconds(1));
      ++tasks;
    });
  std::atomic<int> jobs{0};
  pool.parallel_for(100, [&](std::size_t) { ++jobs; });
  EXPECT_EQ(jobs.load(), 100);
  release = true;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (tasks.load() < 2 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(tasks.load(), 2);
}

TEST(ThreadPool, JobsSeeDistinctIndices) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> seen(64);
  pool.parallel_for(64, [&](std::size_t i) { seen[i] = static_cast<int>(i); });
  for (int i = 0; i < 64; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
}

class ParallelOpsTest : public ::testing::TestWithParam<gf::FieldId> {};

TEST_P(ParallelOpsTest, ParallelAxpyMatchesSerial) {
  const auto& f = gf::field_view(GetParam());
  util::ThreadPool pool(4);
  sim::SplitMix64 rng(1);
  const std::size_t n = 100000;  // above the serial threshold
  std::vector<std::byte> dst_p(f.row_bytes(n)), dst_s(f.row_bytes(n)),
      src(f.row_bytes(n));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t a = rng.next() & (f.order - 1);
    const std::uint64_t b = rng.next() & (f.order - 1);
    f.set(dst_p.data(), i, a);
    f.set(dst_s.data(), i, a);
    f.set(src.data(), i, b);
  }
  const std::uint64_t c = 0x5A5A5A5A & (f.order - 1);
  f.axpy(dst_s.data(), src.data(), c ? c : 3, n);
  linalg::parallel_axpy(f, dst_p.data(), src.data(), c ? c : 3, n, &pool);
  EXPECT_EQ(dst_p, dst_s);
}

TEST_P(ParallelOpsTest, ParallelScaleMatchesSerial) {
  const auto& f = gf::field_view(GetParam());
  util::ThreadPool pool(3);
  sim::SplitMix64 rng(2);
  const std::size_t n = 50000;
  std::vector<std::byte> row_p(f.row_bytes(n)), row_s(f.row_bytes(n));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = rng.next() & (f.order - 1);
    f.set(row_p.data(), i, v);
    f.set(row_s.data(), i, v);
  }
  std::uint64_t c = 0x1234567 & (f.order - 1);
  if (c == 0) c = 5;
  f.scale(row_s.data(), c, n);
  linalg::parallel_scale(f, row_p.data(), c, n, &pool);
  EXPECT_EQ(row_p, row_s);
}

INSTANTIATE_TEST_SUITE_P(AllFields, ParallelOpsTest,
                         ::testing::Values(gf::FieldId::gf2_4,
                                           gf::FieldId::gf2_8,
                                           gf::FieldId::gf2_16,
                                           gf::FieldId::gf2_32));

TEST(ParallelSolver, PooledSolverMatchesSerialSolver) {
  const auto field = gf::FieldId::gf2_32;
  const auto& f = gf::field_view(field);
  const std::size_t k = 8, m = 8192;
  sim::SplitMix64 rng(3);

  // Random chunks + random coefficient rows.
  std::vector<std::vector<std::byte>> chunks(k), coeffs(2 * k),
      payloads(2 * k);
  for (auto& ch : chunks) {
    ch.resize(f.row_bytes(m));
    for (std::size_t i = 0; i < m; ++i)
      f.set(ch.data(), i, rng.next() & (f.order - 1));
  }
  for (std::size_t r = 0; r < coeffs.size(); ++r) {
    coeffs[r].assign(f.row_bytes(k), std::byte{0});
    payloads[r].assign(f.row_bytes(m), std::byte{0});
    for (std::size_t j = 0; j < k; ++j) {
      const std::uint64_t b = rng.next() & (f.order - 1);
      f.set(coeffs[r].data(), j, b);
      f.axpy(payloads[r].data(), chunks[j].data(), b, m);
    }
  }

  util::ThreadPool pool(4);
  linalg::ProgressiveSolver serial(field, k, m);
  linalg::ProgressiveSolver pooled(field, k, m);
  pooled.set_thread_pool(&pool);
  for (std::size_t r = 0; r < coeffs.size(); ++r) {
    const bool a = serial.add_row(coeffs[r].data(), payloads[r].data());
    const bool b = pooled.add_row(coeffs[r].data(), payloads[r].data());
    EXPECT_EQ(a, b) << "row " << r;
  }
  ASSERT_TRUE(serial.complete());
  ASSERT_TRUE(pooled.complete());
  for (std::size_t i = 0; i < k; ++i)
    EXPECT_EQ(std::memcmp(serial.chunk(i), pooled.chunk(i), f.row_bytes(m)),
              0);
}

}  // namespace
}  // namespace fairshare
