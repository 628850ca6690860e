// Extension: multi-threaded decoding.
//
// The paper notes its measurement "code was not parallelized to utilize
// both the available processors" of the Pentium-4 testbed (Section V-B).
// The payload work of Gaussian elimination splits perfectly by symbol
// range; this bench measures the decode speedup of fanning the row
// kernels over a thread pool.
#include <chrono>
#include <thread>
#include <cstdio>
#include <vector>

#include "coding/chunked.hpp"
#include "common.hpp"
#include "sim/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace fairshare;

double decode_seconds(const coding::FileEncoder& encoder,
                      const std::vector<coding::EncodedMessage>& messages,
                      const coding::SecretKey& secret,
                      util::ThreadPool* pool) {
  const auto t0 = std::chrono::steady_clock::now();
  coding::FileDecoder decoder(secret, encoder.info());
  if (pool) decoder.set_thread_pool(pool);
  for (const auto& msg : messages) decoder.add(msg);
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  if (!decoder.complete()) std::exit(1);
  return s;
}

}  // namespace

int main() {
  bench::header("Extension: parallel decode",
                "thread-pool speedup of the decoder's row kernels (8 MB)");

  sim::SplitMix64 rng(7);
  std::vector<std::byte> data(8u << 20);
  for (auto& b : data) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  coding::SecretKey secret{};
  secret[0] = 3;

  // Large k and m so there is real work: 8 MB, k = 64, 128 KiB messages.
  const coding::CodingParams params{gf::FieldId::gf2_32, 1u << 15};
  coding::FileEncoder encoder(secret, 1, data, params);
  const auto messages = encoder.generate(encoder.k());

  std::printf("threads,decode_s,speedup\n");
  const double serial = decode_seconds(encoder, messages, secret, nullptr);
  std::printf("1,%.3f,1.00\n", serial);
  double best = serial;
  for (std::size_t threads : {2u, 4u}) {
    util::ThreadPool pool(threads);
    const double s = decode_seconds(encoder, messages, secret, &pool);
    std::printf("%zu,%.3f,%.2f\n", threads, s, serial / s);
    best = std::min(best, s);
  }

  // Correctness cross-check once more with the pool.
  util::ThreadPool pool(4);
  coding::FileDecoder check(secret, encoder.info());
  check.set_thread_pool(&pool);
  for (const auto& msg : messages) check.add(msg);
  const bool exact = check.complete() && check.reconstruct() == data;

  bench::shape_check(exact, "pooled decode reproduces the file exactly");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u\n", hw);
  if (hw > 1) {
    bench::shape_check(best < serial,
                       "threads reduce decode wall-clock (payload kernels "
                       "parallelize)");
  } else {
    // Single-core host: no speedup is possible; verify the pool's fan-out
    // overhead stays modest instead.
    bench::shape_check(best < serial * 1.5,
                       "on a single-core host the pool adds <50% overhead "
                       "(speedup requires >1 hardware thread)");
  }
  return 0;
}
