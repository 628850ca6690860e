// perfbench_driver: runs one workload through the public API and prints
// the report, ending with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Usage: perfbench_driver --workload video|photos|fair_share --seed N
//          --seconds S --trace 0|1 [--out DIR]
// Exits non-zero when any correctness check fails.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "gf/field_id.hpp"
#include "gf/row_ops.hpp"
#include "net/peer_server.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

/// nproc, CPU, serving backend, GF kernel per field and build type.
std::string host_fingerprint() {
  std::string out = "{\"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"cpu\": \"" + json_escape(cpu_model()) +
                    "\", \"net_backend\": \"" +
                    fairshare::net::to_string(fairshare::net::default_net_backend()) +
                    "\", \"gf_kernels\": {";
  bool first = true;
  for (const auto id : fairshare::gf::kAllFields) {
    out += std::string(first ? "" : ", ") + "\"" + std::string(fairshare::gf::field_name(id)) +
           "\": \"" + fairshare::gf::field_view(id).kernel + "\"";
    first = false;
  }
  return out + "}, \"build\": \"" PERFBENCH_BUILD_TYPE "\"}";
}

/// Wall time of a fixed single-threaded integer loop that calls no
/// fairshare code.  Printed at the start and end of a run: on hosts whose
/// CPU speed drifts, it tells a slow run from a slow program.
double reference_loop_ms() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 50'000'000; ++i) x = (x ^ (x >> 29)) * 0xbf58476d1ce4e5b9ull + i;
  const auto t1 = std::chrono::steady_clock::now();
  volatile std::uint64_t sink = x;
  (void)sink;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--out") args.out_dir = value;
    else return false;
  }
  return argc % 2 == 1 && args.seconds > 0 &&
         (args.workload == "video" || args.workload == "photos" ||
          args.workload == "fair_share");
}

}  // namespace

int main(int argc, char** argv) {
  // Timings from an unoptimised build would describe the wrong program.
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr, "perfbench: refusing a non-Release build (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing build type %s\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  Args args;
  try {
    if (!parse(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: %s --workload video|photos|fair_share --seed N "
                   "--seconds S --trace 0|1 [--out DIR]\n",
                   argv[0]);
      return 2;
    }
  } catch (const std::exception&) {
    std::fprintf(stderr, "perfbench: malformed number\n");
    return 2;
  }

  Report report;
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# host %s\n", host_fingerprint().c_str());
  std::printf("# host reference loop at start: %.3f ms\n", reference_loop_ms());
  std::printf("# traffic crosses the loopback interface; link rates and wire "
              "latency are not measured\n");
  std::fflush(stdout);
  try {
    if (args.workload == "video") run_video(args, report);
    else if (args.workload == "photos") run_photos(args, report);
    else run_fair_share(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const auto& metrics = args.trace ? report.per_layer : report.end_to_end;
  for (const auto& m : metrics)
    if (!std::isfinite(m.value)) report.fail("metric " + m.name + " is not finite");
  for (const auto& line : report.lines) std::printf("%s\n", line.c_str());
  if (report.failures > 0)
    std::printf("%llu correctness checks failed\n",
                static_cast<unsigned long long>(report.failures));
  std::printf("host reference loop at end: %.3f ms\n", reference_loop_ms());
  std::printf("failed_frac %s ratio (%llu failed of %llu downloads)\n",
              number(report.attempted ? static_cast<double>(report.failed) /
                                            static_cast<double>(report.attempted)
                                      : 1.0)
                  .c_str(),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const auto& m : report.end_to_end)
    std::printf("end_to_end %s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  for (const auto& m : report.per_layer)
    std::printf("per_layer %s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());

  std::string json = std::string("{\"correct\": ") +
                     (report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    json += std::string(i ? ", " : "") + "\"" + metrics[i].name +
            "\": {\"value\": " + number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct && report.failed == 0 && report.attempted > 0 ? 0 : 1;
}
