// Encoder-specific behaviors beyond the codec round trips.
#include <gtest/gtest.h>

#include <vector>

#include "coding/chunked.hpp"
#include "sim/rng.hpp"

namespace fairshare::coding {
namespace {

SecretKey secret(std::uint8_t tag) {
  SecretKey s{};
  s[0] = tag;
  return s;
}

std::vector<std::byte> blob(std::size_t n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return out;
}

const CodingParams kParams{gf::FieldId::gf2_32, 64};

TEST(Encoder, MessageIdsAreDeterministic) {
  const auto data = blob(3000, 1);
  FileEncoder a(secret(1), 1, data, kParams);
  FileEncoder b(secret(1), 1, data, kParams);
  const auto ma = a.generate(2 * a.k());
  const auto mb = b.generate(2 * b.k());
  ASSERT_EQ(ma.size(), mb.size());
  for (std::size_t i = 0; i < ma.size(); ++i) {
    EXPECT_EQ(ma[i].message_id, mb[i].message_id);
    EXPECT_EQ(ma[i].payload, mb[i].payload);
  }
}

TEST(Encoder, CopyContinuesTheSameStream) {
  // The encoder owns no threads between calls, so a copy taken mid-stream
  // is an independent encoder at the same point of the same stream.  The
  // batches span several classes and blocks, so generate() runs its pool.
  const CodingParams params{gf::FieldId::gf2_8, 64};
  const auto data = blob(6400, 20);  // k = 100
  ChunkedSchedule schedule;
  schedule.class_size = 16;
  schedule.overlap = 4;
  chunked::Encoder original(secret(1), 1, data, params, schedule);
  original.generate(17);
  chunked::Encoder copy = original;
  const auto a = original.generate(2 * original.k());
  const auto b = copy.generate(2 * copy.k());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].message_id, b[i].message_id);
    EXPECT_EQ(a[i].payload, b[i].payload);
  }
  EXPECT_EQ(original.ids_examined(), copy.ids_examined());
  EXPECT_EQ(original.info().message_digests, copy.info().message_digests);
}

TEST(Encoder, PayloadDependsOnData) {
  const auto d1 = blob(3000, 2);
  auto d2 = d1;
  d2[100] ^= std::byte{1};
  FileEncoder a(secret(1), 1, d1, kParams);
  FileEncoder b(secret(1), 1, d2, kParams);
  EXPECT_NE(a.generate(1)[0].payload, b.generate(1)[0].payload);
}

TEST(Encoder, InfoTracksGeneratedDigests) {
  const auto data = blob(3000, 3);
  FileEncoder enc(secret(1), 1, data, kParams);
  EXPECT_TRUE(enc.info().message_digests.empty());
  enc.generate(3);
  EXPECT_EQ(enc.info().message_digests.size(), 3u);
  enc.generate(2);
  EXPECT_EQ(enc.info().message_digests.size(), 5u);
  EXPECT_EQ(enc.messages_generated(), 5u);
}

TEST(Encoder, ContentDigestMatchesInput) {
  const auto data = blob(3000, 4);
  FileEncoder enc(secret(1), 1, data, kParams);
  EXPECT_EQ(enc.info().content_digest,
            crypto::Md5::hash(std::span<const std::byte>(data)));
}

TEST(Encoder, KMatchesParamsArithmetic) {
  for (std::size_t bytes : {1u, 255u, 256u, 257u, 4096u, 10000u}) {
    const auto data = blob(bytes, 5);
    FileEncoder enc(secret(1), 1, data, kParams);
    EXPECT_EQ(enc.k(), chunks_for_bytes(bytes, kParams)) << bytes;
    EXPECT_EQ(enc.info().original_bytes, bytes);
  }
}

TEST(Encoder, SingleByteFile) {
  const std::vector<std::byte> data{std::byte{0xAB}};
  FileEncoder enc(secret(1), 1, data, kParams);
  EXPECT_EQ(enc.k(), 1u);
  const auto msg = enc.generate(1)[0];
  EXPECT_EQ(msg.payload.size(), kParams.message_bytes());
}

TEST(Encoder, PayloadSizesUniformAcrossFields) {
  for (gf::FieldId field : gf::kAllFields) {
    const CodingParams params{field, 128};
    const auto data = blob(2000, 6);
    FileEncoder enc(secret(1), 1, data, params);
    const auto msg = enc.generate(1)[0];
    EXPECT_EQ(msg.payload.size(), params.message_bytes())
        << gf::field_name(field);
  }
}

TEST(Encoder, DifferentFilesSameSecretDiffer) {
  const auto data = blob(3000, 7);
  FileEncoder a(secret(1), 1, data, kParams);
  FileEncoder b(secret(1), 2, data, kParams);
  // Same data, same secret, different file id -> different coefficients.
  EXPECT_NE(a.generate(1)[0].payload, b.generate(1)[0].payload);
}

TEST(Encoder, ManyBatchesStayDecodableIndividually) {
  // Every batch of k consecutive generated messages is invertible (the
  // screening invariant) — verified over 8 batches via rank tracking.
  const CodingParams params{gf::FieldId::gf2_4, 64};  // small field: rank
                                                      // collisions do occur
  const auto data = blob(400, 8);
  FileEncoder enc(secret(1), 1, data, params);
  const std::size_t k = enc.k();
  const CoefficientGenerator gen(secret(1), 1, params, k);
  for (int batch = 0; batch < 8; ++batch) {
    linalg::IncrementalRank tracker(params.field, k);
    for (const auto& msg : enc.generate(k))
      EXPECT_TRUE(tracker.add_row(gen.row_symbols(msg.message_id)))
          << "batch " << batch;
    EXPECT_TRUE(tracker.full());
  }
}

}  // namespace
}  // namespace fairshare::coding
