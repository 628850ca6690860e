// Ablation A8: progressive elimination vs the paper's literal batch
// decode (collect k, invert the sub-matrix, multiply).
//
// Total work is the same order, but the *latency* profiles differ: the
// progressive decoder spreads its O(m k^2) across message arrivals, so the
// residual work after the last message lands is one row's worth; the batch
// decoder does everything at the end.  For streaming (Section III-D) the
// post-arrival latency is what the user feels.
#include <chrono>
#include <cstdio>
#include <vector>

#include "coding/batch_decoder.hpp"
#include "coding/chunked.hpp"
#include "common.hpp"
#include "sim/rng.hpp"

namespace {

using namespace fairshare;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  bench::header("Ablation A8",
                "decode strategy: progressive elimination vs batch inversion");

  sim::SplitMix64 rng(42);
  std::vector<std::byte> data(1u << 20);
  for (auto& b : data) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  coding::SecretKey secret{};
  secret[0] = 9;

  std::printf("q,m,k,progressive_total_s,progressive_tail_s,batch_tail_s\n");
  bool tail_wins_everywhere = true;
  bool totals_comparable = true;
  for (const auto& [field, m] :
       {std::pair{gf::FieldId::gf2_8, std::size_t{1} << 14},
        std::pair{gf::FieldId::gf2_16, std::size_t{1} << 13},
        std::pair{gf::FieldId::gf2_32, std::size_t{1} << 13}}) {
    const coding::CodingParams params{field, m};
    coding::FileEncoder encoder(secret, 1, data, params);
    const std::size_t k = encoder.k();
    const auto messages = encoder.generate(k);

    // Progressive: total time and "tail" (work after the last arrival).
    auto t0 = std::chrono::steady_clock::now();
    coding::FileDecoder progressive(secret, encoder.info());
    for (std::size_t i = 0; i + 1 < messages.size(); ++i)
      progressive.add(messages[i]);
    const auto t_last = std::chrono::steady_clock::now();
    progressive.add(messages.back());
    const auto out1 = progressive.reconstruct();
    const double prog_total = seconds_since(t0);
    const double prog_tail = seconds_since(t_last);

    // Batch: everything happens after the k-th message.
    coding::BatchDecoder batch(secret, encoder.info());
    for (const auto& msg : messages) batch.add(msg);
    const auto t_batch = std::chrono::steady_clock::now();
    const auto out2 = batch.decode();
    const double batch_tail = seconds_since(t_batch);

    if (!out2 || *out2 != out1) {
      std::fprintf(stderr, "decoder mismatch!\n");
      return 1;
    }
    std::printf("%s,%zu,%zu,%.4f,%.4f,%.4f\n",
                std::string(gf::field_name(field)).c_str(), m, k, prog_total,
                prog_tail, batch_tail);
    if (prog_tail > 0.5 * batch_tail) tail_wins_everywhere = false;
    if (prog_total > 3.0 * batch_tail) totals_comparable = false;
  }

  bench::shape_check(tail_wins_everywhere,
                     "progressive decoding leaves <50% of the batch "
                     "decoder's work for after the last message arrives "
                     "(lower user-felt latency)");
  bench::shape_check(totals_comparable,
                     "total work stays within ~3x of batch inversion (same "
                     "asymptotic O(m k^2) cost)");
  return 0;
}
