// google-benchmark microbenchmarks of the hot kernels underlying Table II:
// field row operations (the O(m k^2) elimination inner loop), the full
// decode pipeline those kernels feed, scalar multiplication, hashing, and
// the ChaCha20 coefficient stream.
//
// Row-kernel benchmarks carry a `simd` axis: simd=0 pins the portable
// scalar kernels (gf::scalar_field_view), simd=1 uses whatever
// gf::field_view dispatched for this host; each row's label records the
// kernel variant actually measured.  BM_DecodePipeline exercises the real
// coding::FileDecoder, whose kernels come from the process-wide dispatch —
// run the binary again under FAIRSHARE_FORCE_SCALAR_KERNELS=1 for the
// scalar pipeline numbers (tools/bench_to_json.py merges the two runs into
// the committed BENCH_kernels.json baseline).
#include <benchmark/benchmark.h>

#include <vector>

#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "common.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/md5.hpp"
#include "crypto/sha256.hpp"
#include "gf/row_ops.hpp"
#include "linalg/matrix.hpp"
#include "net/peer_server.hpp"
#include "net/socket.hpp"
#include "p2p/store.hpp"
#include "p2p/wire.hpp"
#include "sim/rng.hpp"

namespace {

using namespace fairshare;

const gf::FieldView& view_for(std::int64_t simd, gf::FieldId id) {
  return simd ? gf::field_view(id) : gf::scalar_field_view(id);
}

void BM_RowAxpy(benchmark::State& state) {
  const auto field = static_cast<gf::FieldId>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  const auto& f = view_for(state.range(2), field);
  auto dst = bench::random_row(f, m, 1);
  const auto src = bench::random_row(f, m, 2);
  // Masking the constant into the field keeps it nonzero for every field
  // (low byte 0x67), so the kernels stay on their general path.
  const std::uint64_t c = 0x1234567 & (f.order - 1);
  for (auto _ : state) {
    f.axpy(dst.data(), src.data(), c, m);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetLabel(f.kernel);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.row_bytes(m)));
}
BENCHMARK(BM_RowAxpy)
    ->ArgsProduct({{0, 1, 2, 3}, {1 << 13, 1 << 15}, {0, 1}})
    ->ArgNames({"field", "m", "simd"});

void BM_RowScale(benchmark::State& state) {
  const auto field = static_cast<gf::FieldId>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  const auto& f = view_for(state.range(2), field);
  auto row = bench::random_row(f, m, 3);
  const std::uint64_t c = 0x1234567 & (f.order - 1);
  for (auto _ : state) {
    f.scale(row.data(), c, m);
    benchmark::DoNotOptimize(row.data());
  }
  state.SetLabel(f.kernel);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.row_bytes(m)));
}
BENCHMARK(BM_RowScale)
    ->ArgsProduct({{0, 1, 2, 3}, {1 << 15}, {0, 1}})
    ->ArgNames({"field", "m", "simd"});

// Full elimination pipeline at Table II parameters: decode 1 MB from k
// fresh coded messages through the real coding::FileDecoder (coefficient
// regeneration, digest checks, progressive Gaussian elimination).  The
// paper's example point is (q = 2^32, m = 2^15); we sweep all four fields
// at m = 2^15.  Kernels come from the process-wide dispatch — the label
// records which variant ran.
void BM_DecodePipeline(benchmark::State& state) {
  const auto field = static_cast<gf::FieldId>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));

  sim::SplitMix64 rng(42);
  std::vector<std::byte> data(1u << 20);
  for (auto& b : data) b = std::byte{static_cast<std::uint8_t>(rng.next())};

  const coding::CodingParams params{field, m};
  coding::SecretKey secret{};
  secret[0] = 7;
  coding::FileEncoder encoder(secret, 1, data, params);
  const auto messages = encoder.generate(encoder.k());

  for (auto _ : state) {
    coding::FileDecoder decoder(secret, encoder.info());
    for (const auto& msg : messages) decoder.add(msg);
    if (!decoder.complete()) state.SkipWithError("decode incomplete");
    benchmark::DoNotOptimize(decoder.rank());
  }
  state.SetLabel(gf::field_view(field).kernel);
  state.counters["k"] = static_cast<double>(encoder.k());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_DecodePipeline)
    ->ArgsProduct({{0, 1, 2, 3}, {1 << 15}})
    ->ArgNames({"field", "m"})
    ->Unit(benchmark::kMillisecond);

// End-to-end serve pipeline, the twin of BM_DecodePipeline on the other
// side of the wire: a client drains one whole stored file from a running
// PeerServer over loopback TCP per iteration, through the reactor's
// zero-copy scatter-gather path (21 framing bytes staged, payloads
// referenced in the MessageStore and gathered by sendmsg).  Unpaced and
// unauthenticated, so the number measures the serve path itself.
void BM_ServePipeline(benchmark::State& state) {
  constexpr std::size_t kMessages = 256;
  constexpr std::size_t kPayload = 4096;
  sim::SplitMix64 rng(9);
  p2p::MessageStore store;
  std::size_t stream_bytes = 0;
  for (std::size_t i = 0; i < kMessages; ++i) {
    coding::EncodedMessage m;
    m.file_id = 1;
    m.message_id = i;
    m.payload.resize(kPayload);
    for (auto& b : m.payload)
      b = std::byte{static_cast<std::uint8_t>(rng.next())};
    stream_bytes += p2p::wire::kCodedMessageHeaderBytes + m.payload.size();
    store.store(std::move(m));
  }
  net::PeerServer::Config config;
  config.require_auth = false;
  net::PeerServer server(config, std::move(store));
  if (!server.start()) {
    state.SkipWithError("server start failed");
    return;
  }
  for (auto _ : state) {
    auto client = net::Socket::connect_to("127.0.0.1", server.port());
    if (!client) {
      state.SkipWithError("connect failed");
      break;
    }
    p2p::wire::FileRequest request;
    request.user_id = 7;
    request.file_id = 1;
    if (!net::send_frame(*client, p2p::wire::encode(request))) {
      state.SkipWithError("request failed");
      break;
    }
    client->set_recv_timeout(5000);
    std::size_t frames = 0;
    while (auto frame = net::recv_frame(*client, 1u << 20)) {
      benchmark::DoNotOptimize(frame->data());
      ++frames;
    }
    if (frames != kMessages) {
      state.SkipWithError("short stream");
      break;
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream_bytes));
  server.stop();
}
BENCHMARK(BM_ServePipeline)->Unit(benchmark::kMillisecond);

void BM_ScalarMul(benchmark::State& state) {
  const auto field = static_cast<gf::FieldId>(state.range(0));
  const auto& f = gf::field_view(field);
  std::uint64_t a = 0x9E3779B9 & (f.order - 1), b = 0x85EBCA77 & (f.order - 1);
  if (a == 0) a = 3;
  if (b == 0) b = 5;
  for (auto _ : state) {
    a = f.mul(a, b) | 1;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ScalarMul)->DenseRange(0, 3)->ArgNames({"field"});

void BM_MatrixInvert(benchmark::State& state) {
  const auto field = static_cast<gf::FieldId>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const auto& f = gf::field_view(field);
  sim::SplitMix64 rng(7);
  linalg::Matrix m(field, k, k);
  for (std::size_t r = 0; r < k; ++r)
    for (std::size_t c = 0; c < k; ++c)
      m.set(r, c, rng.next() & (f.order - 1));
  for (auto _ : state) {
    auto inv = linalg::invert(m);
    benchmark::DoNotOptimize(inv);
  }
}
BENCHMARK(BM_MatrixInvert)
    ->ArgsProduct({{1, 3}, {8, 32, 128}})
    ->ArgNames({"field", "k"});

void BM_Md5(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> data(n, 0xAB);
  for (auto _ : state) {
    auto d = crypto::Md5::hash(std::span<const std::uint8_t>(data));
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Md5)->Arg(1 << 17)->ArgNames({"bytes"});

void BM_Sha256(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> data(n, 0xCD);
  for (auto _ : state) {
    auto d = crypto::Sha256::hash(std::span<const std::uint8_t>(data));
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Sha256)->Arg(1 << 17)->ArgNames({"bytes"});

void BM_ChaCha20Stream(benchmark::State& state) {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 12> nonce{};
  crypto::ChaCha20 rng(key, nonce, 0);
  std::vector<std::uint8_t> buf(1 << 16);
  for (auto _ : state) {
    rng.generate(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_ChaCha20Stream);

}  // namespace

int main(int argc, char** argv) {
  // The library_build_type the benchmark library self-reports describes
  // how *libbenchmark* was compiled (Debian ships a debug one), not this
  // binary; record our own optimisation state so tools/bench_to_json.py
  // can refuse to bless a debug-build baseline.
#ifdef __OPTIMIZE__
  benchmark::AddCustomContext("fairshare_build_type", "release");
#else
  benchmark::AddCustomContext("fairshare_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
