// Ablation A6 (paper future work, Section VI-A): "minimizing the amount of
// meta-data that the user needs to carry around".
//
// Compares the baseline per-message MD5 digest table against Merkle-root
// authentication across file sizes: bytes the user must carry offline vs
// per-message wire overhead, using the paper's default coding parameters
// (q = 2^32, m = 2^15 -> 128 KiB messages) and n = 10 peers' worth of
// stored messages.
#include <cmath>
#include <cstdio>
#include <vector>

#include "coding/chunked.hpp"
#include "coding/merkle_auth.hpp"
#include "common.hpp"
#include "sim/rng.hpp"

int main() {
  using namespace fairshare;
  bench::header("Ablation A6",
                "user-carried metadata: MD5 digest table vs Merkle root");

  const coding::CodingParams params = coding::CodingParams::paper_defaults();
  const std::size_t peers = 10;

  std::printf("file_MB,k,messages,digest_table_B,merkle_carried_B,"
              "proof_overhead_B_per_msg,proof_overhead_pct_of_msg\n");
  bool merkle_always_smaller = true;
  bool overhead_stays_tiny = true;
  for (std::size_t mb : {1u, 4u, 16u, 64u, 256u}) {
    const std::size_t bytes = mb << 20;
    const std::size_t k = coding::chunks_for_bytes(bytes, params);
    const std::size_t n_messages = k * peers;
    const std::size_t digest_table = n_messages * 16;
    const std::size_t merkle_carried = 32 + 4;
    const std::size_t proof_entries = static_cast<std::size_t>(
        std::ceil(std::log2(static_cast<double>(n_messages))));
    const std::size_t proof_bytes = 4 + 32 * proof_entries;
    const double pct = 100.0 * static_cast<double>(proof_bytes) /
                       static_cast<double>(params.message_bytes());
    std::printf("%zu,%zu,%zu,%zu,%zu,%zu,%.3f\n", mb, k, n_messages,
                digest_table, merkle_carried, proof_bytes, pct);
    if (merkle_carried >= digest_table) merkle_always_smaller = false;
    if (pct > 1.0) overhead_stays_tiny = false;
  }

  // Verify the real implementation agrees with the accounting on a small
  // concrete instance.
  sim::SplitMix64 rng(5);
  std::vector<std::byte> data(1u << 18);
  for (auto& b : data) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  const coding::CodingParams small{gf::FieldId::gf2_32, 1u << 12};
  coding::SecretKey secret{};
  coding::FileEncoder enc(secret, 1, data, small);
  const auto messages = enc.generate(enc.k() * 4);
  const coding::MerkleAuthenticator auth(messages);
  const auto am = auth.attach(messages[3], 3);
  const coding::MerkleVerifier verifier(auth.root(), auth.leaf_count());

  bench::shape_check(merkle_always_smaller,
                     "the 36-byte Merkle root always beats the 16B/message "
                     "digest table (1.3 KB at 1 MB, 327 KB at 256 MB)");
  bench::shape_check(overhead_stays_tiny,
                     "per-message proof overhead stays below 1% of a "
                     "128 KiB message");
  bench::shape_check(verifier.verify(am),
                     "implementation check: attached proofs verify against "
                     "the carried root");
  return 0;
}
