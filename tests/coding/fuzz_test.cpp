// Randomized end-to-end exercises of the codec: random fields, message
// lengths, file sizes, arrival orders, duplicate/tamper injections.
// Deterministic seeds; 60 scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "coding/chunked.hpp"
#include "sim/rng.hpp"

namespace fairshare::coding {
namespace {

TEST(CodecFuzz, RandomScenariosAlwaysRoundTrip) {
  sim::SplitMix64 rng(20060701);
  for (int scenario = 0; scenario < 60; ++scenario) {
    // --- random configuration -----------------------------------------
    const gf::FieldId field =
        gf::kAllFields[rng.next_below(4)];
    // Even m in [16, 272] keeps GF(2^4) byte-aligned and tests odd-ish
    // shapes for everyone else.
    const std::size_t m = 16 + 2 * rng.next_below(129);
    const std::size_t bytes = 1 + rng.next_below(20000);
    const CodingParams params{field, m};

    SecretKey secret{};
    secret[0] = static_cast<std::uint8_t>(scenario);
    std::vector<std::byte> data(bytes);
    for (auto& b : data) b = std::byte{static_cast<std::uint8_t>(rng.next())};

    FileEncoder encoder(secret, 1 + scenario, data, params);
    const std::size_t k = encoder.k();

    // --- generate a redundant pool and shuffle arrivals ----------------
    const std::size_t pool_size = k + 1 + rng.next_below(k + 1);
    auto pool = encoder.generate(pool_size);
    for (std::size_t i = pool.size(); i-- > 1;)
      std::swap(pool[i], pool[rng.next_below(i + 1)]);

    // --- inject duplicates and tampered copies -------------------------
    std::vector<EncodedMessage> arrivals;
    std::size_t tampered = 0;
    for (const auto& msg : pool) {
      if (rng.next_below(5) == 0) arrivals.push_back(msg);  // duplicate
      if (rng.next_below(4) == 0) {
        auto bad = msg;
        bad.payload[rng.next_below(bad.payload.size())] ^=
            std::byte{static_cast<std::uint8_t>(1 + rng.next_below(255))};
        arrivals.push_back(bad);
        ++tampered;
      }
      arrivals.push_back(msg);
    }

    // --- decode ---------------------------------------------------------
    FileDecoder decoder(secret, encoder.info());
    std::size_t rejected = 0;
    for (const auto& msg : arrivals) {
      if (decoder.complete()) break;
      if (decoder.add(msg) == AddResult::bad_digest) ++rejected;
    }
    ASSERT_TRUE(decoder.complete())
        << "scenario " << scenario << " field "
        << gf::field_name(field) << " m=" << m << " bytes=" << bytes
        << " rank " << decoder.rank() << "/" << k;
    EXPECT_EQ(decoder.reconstruct(), data) << "scenario " << scenario;
    EXPECT_LE(rejected, tampered) << "scenario " << scenario;
    // Every tampered copy that was seen before completion must have been
    // rejected, never absorbed: reconstruct() equality above proves it.
  }
}

TEST(CodecFuzz, AllFieldsAllSmallSizes) {
  // Exhaustive small-size sweep: every field x file sizes 1..64 bytes.
  sim::SplitMix64 rng(99);
  for (gf::FieldId field : gf::kAllFields) {
    const CodingParams params{field, 16};
    for (std::size_t bytes = 1; bytes <= 64; ++bytes) {
      SecretKey secret{};
      secret[0] = static_cast<std::uint8_t>(bytes);
      std::vector<std::byte> data(bytes);
      for (auto& b : data)
        b = std::byte{static_cast<std::uint8_t>(rng.next())};
      FileEncoder encoder(secret, bytes, data, params);
      const auto messages = encoder.generate(encoder.k());
      FileDecoder decoder(secret, encoder.info());  // digests now known
      for (const auto& msg : messages) decoder.add(msg);
      ASSERT_TRUE(decoder.complete())
          << gf::field_name(field) << " bytes=" << bytes;
      ASSERT_EQ(decoder.reconstruct(), data)
          << gf::field_name(field) << " bytes=" << bytes;
    }
  }
}

}  // namespace
}  // namespace fairshare::coding
