// The benchmark's own arithmetic, kept free of I/O so the self-tests
// (tests/logic_test.cpp) can pin it: the tail-percentile rule, span
// self-time, the Eq. (2) share oracle, and the byte-for-byte check.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Nearest-rank percentile q (0 < q < 1) of `samples`, or nullopt when
/// fewer than `min_beyond` samples lie strictly above its rank: a tail
/// percentile is only reported when the sample supports it.
inline std::optional<double> tail_percentile(std::vector<double> samples,
                                             double q,
                                             std::size_t min_beyond = 10) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));  // 1-based
  const std::size_t r = std::clamp<std::size_t>(rank, 1, n);
  if (n - r < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (r - 1), samples.end());
  return samples[r - 1];
}

/// Nanoseconds of [begin, end) covered by the union of `intervals`
/// (each [start, end)), clipped to the window.
inline std::uint64_t covered_ns(
    std::uint64_t begin, std::uint64_t end,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t cursor = begin;  // everything before cursor is counted
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (s >= e) continue;
    covered += e - s;
    cursor = e;
  }
  return covered;
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover.  Children that start after the parent
/// ended (or straddle its end) count only inside the parent's interval.
inline std::map<std::uint64_t, std::uint64_t> self_times(
    const std::vector<fairshare::obs::SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const auto& s : spans)
    if (s.parent != 0)
      children[s.parent].emplace_back(s.start_ns, s.start_ns + s.duration_ns);
  std::map<std::uint64_t, std::uint64_t> out;
  for (const auto& s : spans) {
    const auto it = children.find(s.id);
    const std::uint64_t covered =
        it == children.end()
            ? 0
            : covered_ns(s.start_ns, s.start_ns + s.duration_ns, it->second);
    out[s.id] = s.duration_ns - covered;
  }
  return out;
}

/// Eq. (2) shares S_j / sum_l S_l over the requesting users (0 for users
/// not requesting).  Computed here from the benchmark's own ledger so the
/// allocation layer under test is never its own oracle.
inline std::vector<double> eq2_shares(const std::vector<double>& contribution,
                                      const std::vector<bool>& requesting) {
  double total = 0.0;
  for (std::size_t j = 0; j < contribution.size(); ++j)
    if (requesting[j]) total += contribution[j];
  std::vector<double> out(contribution.size(), 0.0);
  if (total <= 0.0) return out;
  for (std::size_t j = 0; j < contribution.size(); ++j)
    if (requesting[j]) out[j] = contribution[j] / total;
  return out;
}

/// min_j (observed byte share / predicted share) over users with a
/// positive prediction; 0 when nothing was served.
inline double share_ratio_min(const std::vector<double>& served_bytes,
                              const std::vector<double>& predicted) {
  double total = 0.0;
  for (double b : served_bytes) total += b;
  if (total <= 0.0) return 0.0;
  double worst = -1.0;
  for (std::size_t j = 0; j < served_bytes.size(); ++j) {
    if (predicted[j] <= 0.0) continue;
    const double r = (served_bytes[j] / total) / predicted[j];
    worst = worst < 0.0 ? r : std::min(worst, r);
  }
  return std::max(worst, 0.0);
}

/// True when a download delivered exactly the original bytes.
inline bool same_bytes(std::span<const std::byte> got,
                       std::span<const std::byte> want) {
  return got.size() == want.size() &&
         (want.empty() || std::memcmp(got.data(), want.data(), want.size()) == 0);
}

}  // namespace perfbench
