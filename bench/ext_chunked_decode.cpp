// Extension: chunked vs dense decode at file sizes the paper never ran.
//
// Dense RLNC decode is O(k^2 * m) field operations, which is fine at the
// paper's 1 MB / k = 8 operating point and crippling at k = 8192 (1 GB):
// the coefficient matrix alone stops fitting in cache and every new row
// eliminates against thousands of pivots.  The overlapping-class codec
// (coding/chunked.hpp) bounds every elimination to one class of
// `class_size` chunks, so decode cost grows linearly with file size.
// This bench measures both codecs' decode throughput and reception
// overhead (messages consumed beyond k) at 10 MB / 100 MB / 1 GB, plus an
// opt-in 10 GB point (FAIRSHARE_BENCH_10G=1).
//
// Decode work only: instead of running the O(k^2 * m) dense *encode* to
// produce a measurable stream, both decoders are fed synthetic messages —
// sequential ids whose coefficient rows come from the real secret-keyed
// ChaCha generator, over one shared payload buffer — with digest checks
// relaxed.  Elimination cost depends only on the coefficient rows, never
// on payload content, so the timings match a real stream while setup
// stays O(file size).
//
// Wired into BENCH_kernels.json by the bench_baseline target as two
// sections: runs.chunked_decode (10/100 MB, refreshed and compared in
// CI's bench-smoke) and runs.chunked_decode_huge (the 1 GB acceptance
// point and the optional 10 GB one; baseline-only, too slow for CI).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <vector>

#include "coding/chunked.hpp"
#include "coding/params.hpp"
#include "sim/rng.hpp"

namespace {

using namespace fairshare;

// The paper's field/message geometry (Section III-C): 128 KiB messages
// over GF(2^32), so 1 GB lands at k = 8192.
const coding::CodingParams kParams{gf::FieldId::gf2_32, 1u << 15};

coding::SecretKey bench_secret() {
  coding::SecretKey s{};
  s[0] = 99;
  return s;
}

coding::FileInfo synthetic_info(std::size_t bytes, coding::CodecKind codec) {
  coding::FileInfo info;
  info.file_id = 1;
  info.original_bytes = bytes;
  info.params = kParams;
  info.k = coding::chunks_for_bytes(bytes, kParams);
  info.codec = codec;  // chunked keeps the default 64/8 schedule
  return info;
}

std::vector<std::byte> payload_buffer() {
  std::vector<std::byte> payload(kParams.message_bytes());
  sim::SplitMix64 rng(0xBE);
  for (auto& b : payload) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return payload;
}

void BM_DenseDecode(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0)) << 20;
  const coding::FileInfo info =
      synthetic_info(bytes, coding::CodecKind::dense);
  coding::EncodedMessage msg;
  msg.file_id = info.file_id;
  msg.payload = payload_buffer();

  std::size_t consumed = 0;
  for (auto _ : state) {
    coding::FileDecoder decoder(bench_secret(), info,
                                /*require_digests=*/false);
    consumed = 0;
    for (std::uint64_t id = 0; !decoder.complete(); ++id) {
      msg.message_id = id;
      decoder.add(msg);
      ++consumed;
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["k"] = static_cast<double>(info.k);
  state.counters["consumed"] = static_cast<double>(consumed);
  state.counters["overhead_pct"] =
      100.0 * static_cast<double>(consumed - info.k) /
      static_cast<double>(info.k);
  state.counters["classes"] = 1.0;
}

void BM_ChunkedDecode(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0)) << 20;
  const coding::FileInfo info =
      synthetic_info(bytes, coding::CodecKind::chunked);
  const coding::chunked::ClassMap map(info.k, info.schedule);
  coding::EncodedMessage msg;
  msg.file_id = info.file_id;
  msg.payload = payload_buffer();

  std::size_t consumed = 0;
  for (auto _ : state) {
    coding::chunked::Decoder decoder(bench_secret(), info,
                                     /*require_digests=*/false);
    consumed = 0;
    // Unscreened sequential ids: the quota schedule makes in-order
    // delivery complete at ~k consumed; the 3-period cap only guards
    // against a pathological rng draw.
    for (std::uint64_t id = 0; !decoder.complete(); ++id) {
      if (id >= 3 * static_cast<std::uint64_t>(info.k)) {
        state.SkipWithError("chunked decode did not converge in 3 periods");
        return;
      }
      msg.message_id = id;
      decoder.add(msg);
      ++consumed;
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["k"] = static_cast<double>(info.k);
  state.counters["consumed"] = static_cast<double>(consumed);
  state.counters["overhead_pct"] =
      100.0 * static_cast<double>(consumed - info.k) /
      static_cast<double>(info.k);
  state.counters["classes"] = static_cast<double>(map.classes());
}

void configure(benchmark::internal::Benchmark* b, bool huge_points) {
  b->Unit(benchmark::kMillisecond)->Iterations(1);
  b->Arg(10)->Arg(100);
  if (huge_points) {
    b->Arg(1024);
    // The 10 GB point needs ~25 GB of RAM and the better part of an hour
    // for the dense side; strictly opt-in.
    if (std::getenv("FAIRSHARE_BENCH_10G")) b->Arg(10240);
  }
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __OPTIMIZE__
  benchmark::AddCustomContext("fairshare_build_type", "release");
#else
  benchmark::AddCustomContext("fairshare_build_type", "debug");
#endif
  // The 1 GB+ args only exist when the caller asks for them, so CI's
  // bench-smoke filter never has to know they exist and --compare's
  // missing-name check stays meaningful per section.
  const bool huge = std::getenv("FAIRSHARE_BENCH_HUGE") != nullptr ||
                    std::getenv("FAIRSHARE_BENCH_10G") != nullptr;
  configure(benchmark::RegisterBenchmark("BM_ChunkedDecode", BM_ChunkedDecode),
            huge);
  configure(benchmark::RegisterBenchmark("BM_DenseDecode", BM_DenseDecode),
            huge);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
