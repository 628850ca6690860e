// Ablation A9: RLNC (the paper's codec) vs an LT fountain code (the
// "digital fountain" approach of the paper's related work [18]).
//
// Same 1 MB file, same block/message size.  Compares (a) reception
// overhead — symbols needed beyond k — and (b) decode CPU.  RLNC receives
// exactly k messages (screened batches) at the price of field arithmetic;
// LT pays a k(1+eps) reception overhead for XOR-only decoding.  In the
// paper's remote-access setting reception overhead is wasted *download
// bandwidth* — the scarce resource — which is a further reason RLNC fits.
#include <chrono>
#include <cstdio>
#include <vector>

#include "coding/chunked.hpp"
#include "coding/fountain.hpp"
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
  bench::header("Ablation A9",
                "RLNC (paper) vs LT fountain code [18]: overhead and CPU");

  sim::SplitMix64 rng(99);
  std::vector<std::byte> data(1u << 20);
  for (auto& b : data) b = std::byte{static_cast<std::uint8_t>(rng.next())};

  std::printf("k,block_KiB,rlnc_symbols,rlnc_overhead,lt_symbols,"
              "lt_overhead,rlnc_decode_s,lt_decode_s\n");
  bool rlnc_exact = true, lt_overhead_positive = true, lt_cpu_cheaper = true;
  for (const std::size_t block_bytes : {1u << 14, 1u << 13}) {
    const std::size_t m = block_bytes / 4;  // GF(2^32) symbols per message
    const coding::CodingParams params{gf::FieldId::gf2_32, m};
    coding::SecretKey secret{};
    secret[0] = 1;

    coding::FileEncoder encoder(secret, 1, data, params);
    const std::size_t k = encoder.k();
    const auto messages = encoder.generate(k);
    auto t0 = std::chrono::steady_clock::now();
    coding::FileDecoder rlnc(secret, encoder.info());
    for (const auto& msg : messages) rlnc.add(msg);
    const double rlnc_s = seconds_since(t0);
    if (!rlnc.complete() || rlnc.reconstruct() != data) return 1;
    const std::size_t rlnc_syms = messages.size();

    coding::LtEncoder lt_enc(data, block_bytes);
    // Decode CPU measured over the full reception (XOR work dominates).
    t0 = std::chrono::steady_clock::now();
    coding::LtDecoder lt_dec(lt_enc.k(), block_bytes, data.size());
    while (!lt_dec.complete()) lt_dec.add(lt_enc.next_symbol(rng));
    const double lt_s = seconds_since(t0);
    if (lt_dec.reconstruct() != data) return 1;
    const std::size_t lt_syms = lt_dec.symbols_received();

    const double rlnc_ov = static_cast<double>(rlnc_syms) / k - 1.0;
    const double lt_ov = static_cast<double>(lt_syms) / k - 1.0;
    std::printf("%zu,%zu,%zu,%.3f,%zu,%.3f,%.4f,%.4f\n", k,
                block_bytes / 1024, rlnc_syms, rlnc_ov, lt_syms, lt_ov,
                rlnc_s, lt_s);
    if (rlnc_syms != k) rlnc_exact = false;
    if (lt_syms <= k) lt_overhead_positive = false;
    if (lt_s > rlnc_s) lt_cpu_cheaper = false;
  }

  bench::shape_check(rlnc_exact,
                     "RLNC decodes from exactly k messages (screened "
                     "batches; 'exactly k messages will suffice')");
  bench::shape_check(lt_overhead_positive,
                     "the LT fountain needs strictly more than k symbols "
                     "(reception overhead = wasted download bandwidth)");
  bench::shape_check(lt_cpu_cheaper,
                     "LT decodes with less CPU (XOR-only peeling) — the "
                     "classic trade the paper resolves in favor of RLNC");
  return 0;
}
