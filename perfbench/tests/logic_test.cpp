// Self-tests for the benchmark's own arithmetic (driver/stats.hpp).
// run.py runs these before every measurement.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "stats.hpp"

namespace {

using perfbench::covered_ns;
using perfbench::eq2_shares;
using perfbench::same_bytes;
using perfbench::self_times;
using perfbench::share_ratio_min;
using perfbench::tail_percentile;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

// ---------------------------------------------------------- percentile

TEST(TailPercentile, RefusedWithFewerThanTenSamplesBeyond) {
  // 999 samples: rank ceil(0.99 * 999) = 990 leaves 9 above it.
  EXPECT_FALSE(tail_percentile(ramp(999), 0.99).has_value());
  EXPECT_FALSE(tail_percentile(ramp(100), 0.99).has_value());
  EXPECT_FALSE(tail_percentile({}, 0.99).has_value());
}

TEST(TailPercentile, ReportedOnceTenSamplesLieBeyond) {
  // 1000 samples 1..1000: rank 990 is the value 990, with 10 above.
  const auto p99 = tail_percentile(ramp(1000), 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_DOUBLE_EQ(*p99, 990.0);
  const auto p50 = tail_percentile(ramp(21), 0.5);
  ASSERT_TRUE(p50.has_value());
  EXPECT_DOUBLE_EQ(*p50, 11.0);
}

TEST(Median, EvenAndOdd) {
  EXPECT_DOUBLE_EQ(perfbench::median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::median({}), 0.0);
}

// ---------------------------------------------------------- self time

fairshare::obs::SpanRecord span(std::uint64_t id, std::uint64_t parent,
                                std::uint64_t start, std::uint64_t end) {
  fairshare::obs::SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.duration_ns = end - start;
  s.name = "x";
  return s;
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Parent [0,100); children [10,40) and [30,60) overlap on [30,40).
  EXPECT_EQ(covered_ns(0, 100, {{10, 40}, {30, 60}}), 50u);
  const auto self = self_times(
      {span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 60)});
  EXPECT_EQ(self.at(1), 50u);
  EXPECT_EQ(self.at(2), 30u);
  EXPECT_EQ(self.at(3), 30u);
}

TEST(SelfTime, ChildrenClippedToParentAndGrandchildrenIgnored) {
  // Child [90,130) sticks out past the parent's end; the grandchild
  // [20,30) is charged to its own parent only; [150,160) lies outside.
  const auto self = self_times({span(1, 0, 0, 100), span(2, 1, 90, 130),
                                span(3, 1, 10, 50), span(4, 3, 20, 30),
                                span(5, 1, 150, 160)});
  EXPECT_EQ(self.at(1), 100u - 10u - 40u);
  EXPECT_EQ(self.at(3), 40u - 10u);
  EXPECT_EQ(self.at(5), 10u);
}

TEST(SelfTime, NestedChildrenInsideOneAnother) {
  EXPECT_EQ(covered_ns(0, 100, {{10, 90}, {20, 30}, {40, 50}}), 80u);
  EXPECT_EQ(covered_ns(0, 100, {}), 0u);
}

// ---------------------------------------------------------- Eq. (2)

TEST(Eq2Oracle, SharesFollowContributionsOfRequestingUsers) {
  const auto all = eq2_shares({1, 2, 3, 4}, {true, true, true, true});
  EXPECT_DOUBLE_EQ(all[0], 0.1);
  EXPECT_DOUBLE_EQ(all[1], 0.2);
  EXPECT_DOUBLE_EQ(all[2], 0.3);
  EXPECT_DOUBLE_EQ(all[3], 0.4);
  // An idle user's share is redistributed proportionally.
  const auto some = eq2_shares({1, 2, 3, 4}, {true, false, true, false});
  EXPECT_DOUBLE_EQ(some[0], 0.25);
  EXPECT_DOUBLE_EQ(some[1], 0.0);
  EXPECT_DOUBLE_EQ(some[2], 0.75);
  const auto none = eq2_shares({1, 2}, {false, false});
  EXPECT_DOUBLE_EQ(none[0] + none[1], 0.0);
}

TEST(Eq2Oracle, WorstRatioOfObservedToPredicted) {
  const std::vector<double> predicted = {0.1, 0.2, 0.3, 0.4};
  EXPECT_DOUBLE_EQ(share_ratio_min({10, 20, 30, 40}, predicted), 1.0);
  // User 0 got half its share.
  EXPECT_DOUBLE_EQ(share_ratio_min({5, 20, 30, 45}, predicted), 0.5);
  EXPECT_DOUBLE_EQ(share_ratio_min({0, 0, 0, 0}, predicted), 0.0);
}

// ---------------------------------------------------------- byte check

TEST(ByteCompare, NegativeControlCorruptedOutputFails) {
  std::vector<std::byte> original(4096);
  for (std::size_t i = 0; i < original.size(); ++i)
    original[i] = std::byte{static_cast<unsigned char>(i * 7)};
  std::vector<std::byte> output = original;
  EXPECT_TRUE(same_bytes(output, original));
  output[1234] ^= std::byte{0x01};  // one flipped bit
  EXPECT_FALSE(same_bytes(output, original));
  output = original;
  output.pop_back();  // truncated
  EXPECT_FALSE(same_bytes(output, original));
  EXPECT_FALSE(same_bytes({}, original));
}

}  // namespace
