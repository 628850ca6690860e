// Workload entry points and the report they fill.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window per phase
  bool trace = false;     ///< add a traced phase and report per-layer metrics
  std::string out_dir = ".bench_build/perfbench-trace";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a run prints.  `end_to_end` and `per_layer` become the
/// final JSON line (one of them, per --trace); `lines` are the
/// human-readable report above it.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> lines;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void line(std::string text) { lines.push_back(std::move(text)); }
  /// Record a failed correctness check (the run exits non-zero).  Only the
  /// first few are itemised; `failures` counts them all.
  void fail(std::string why) {
    correct = false;
    if (++failures <= 10) lines.push_back("CHECK FAILED: " + std::move(why));
  }
  std::uint64_t failures = 0;
};

void run_video(const Args& args, Report& report);
void run_photos(const Args& args, Report& report);
void run_fair_share(const Args& args, Report& report);

}  // namespace perfbench
