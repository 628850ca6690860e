// End-to-end encoder/decoder behavior: the heart of Section III.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
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

std::vector<std::byte> random_data(std::size_t n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return out;
}

struct CodecCase {
  gf::FieldId field;
  std::size_t m;
  std::size_t data_bytes;
};

std::string label(const CodecCase& c) {
  std::string name = "q";
  name += std::to_string(gf::field_bits(c.field));
  name += 'm';
  name += std::to_string(c.m);
  name += 'b';
  name += std::to_string(c.data_bytes);
  return name;
}

// CTest names each case by gtest's print of its parameter.  Without this,
// gtest prints the struct's raw bytes, padding after `field` included, and
// the names change from build to build.
void PrintTo(const CodecCase& c, std::ostream* os) { *os << label(c); }

class CodecTest : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecTest, ExactlyKMessagesSuffice) {
  const auto& c = GetParam();
  const CodingParams params{c.field, c.m};
  const auto data = random_data(c.data_bytes, 1);
  FileEncoder encoder(secret(1), 100, data, params);
  const std::size_t k = encoder.k();

  // The first k screened messages form a batch guaranteed invertible.
  const auto messages = encoder.generate(k);
  FileDecoder decoder(secret(1), encoder.info());
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(decoder.add(messages[i]), AddResult::accepted) << i;
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.reconstruct(), data);
  EXPECT_EQ(decoder.accepted(), k);
}

TEST_P(CodecTest, CrossBatchMixDecodes) {
  const auto& c = GetParam();
  const CodingParams params{c.field, c.m};
  const auto data = random_data(c.data_bytes, 2);
  FileEncoder encoder(secret(2), 7, data, params);
  const std::size_t k = encoder.k();

  // Generate 3 batches and feed an interleaved subset; the decoder keeps
  // requesting until rank k (non-innovative rows are simply skipped).
  auto messages = encoder.generate(3 * k);
  std::reverse(messages.begin(), messages.end());
  FileDecoder decoder(secret(2), encoder.info());
  std::size_t fed = 0;
  for (const auto& msg : messages) {
    if (decoder.complete()) break;
    decoder.add(msg);
    ++fed;
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.reconstruct(), data);
  EXPECT_GE(fed, k);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CodecTest,
    ::testing::Values(CodecCase{gf::FieldId::gf2_4, 256, 2000},
                      CodecCase{gf::FieldId::gf2_8, 128, 2000},
                      CodecCase{gf::FieldId::gf2_16, 64, 2000},
                      CodecCase{gf::FieldId::gf2_32, 32, 2000},
                      CodecCase{gf::FieldId::gf2_32, 64, 40000},
                      CodecCase{gf::FieldId::gf2_8, 64, 1}),
    [](const auto& info) { return label(info.param); });

TEST(Codec, WrongSecretProducesGarbage) {
  // Security (Section III-C): without the right secret the coefficient
  // rows are wrong and reconstruction does not match.
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(3000, 3);
  FileEncoder encoder(secret(1), 1, data, params);
  const auto messages = encoder.generate(encoder.k());

  FileDecoder decoder(secret(99), encoder.info());  // wrong key
  for (const auto& m : messages) decoder.add(m);
  if (decoder.complete()) {
    EXPECT_NE(decoder.reconstruct(), data);
  }
}

TEST(Codec, TamperedPayloadRejectedByDigest) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(2000, 4);
  FileEncoder encoder(secret(1), 1, data, params);
  auto messages = encoder.generate(encoder.k());

  messages[0].payload[3] ^= std::byte{0xFF};
  FileDecoder decoder(secret(1), encoder.info());
  EXPECT_EQ(decoder.add(messages[0]), AddResult::bad_digest);
  EXPECT_EQ(decoder.rejected_auth(), 1u);
  for (std::size_t i = 1; i < messages.size(); ++i) decoder.add(messages[i]);
  EXPECT_FALSE(decoder.complete());  // one message short
}

TEST(Codec, ForgedMessageIdRejected) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(2000, 5);
  FileEncoder encoder(secret(1), 1, data, params);
  auto messages = encoder.generate(encoder.k());
  messages[0].message_id = 12345678;  // id never emitted by the encoder
  FileDecoder decoder(secret(1), encoder.info());
  EXPECT_EQ(decoder.add(messages[0]), AddResult::bad_digest);
}

TEST(Codec, UnknownIdsAcceptedWhenDigestsNotRequired) {
  // Experiment mode: user did not carry the digest table.
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(2000, 6);
  FileEncoder encoder(secret(1), 1, data, params);
  const auto messages = encoder.generate(encoder.k());
  FileInfo info = encoder.info();
  info.message_digests.clear();
  FileDecoder decoder(secret(1), info, /*require_digests=*/false);
  for (const auto& m : messages) decoder.add(m);
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.reconstruct(), data);
}

TEST(Codec, WrongFileIdRejected) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(1000, 7);
  FileEncoder enc_a(secret(1), 1, data, params);
  FileEncoder enc_b(secret(1), 2, data, params);
  const auto msg_b = enc_b.generate(1)[0];
  FileDecoder decoder(secret(1), enc_a.info());
  EXPECT_EQ(decoder.add(msg_b), AddResult::wrong_file);
}

TEST(Codec, WrongPayloadSizeRejected) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(1000, 8);
  FileEncoder encoder(secret(1), 1, data, params);
  auto msg = encoder.generate(1)[0];
  msg.payload.resize(msg.payload.size() - 4);
  FileDecoder decoder(secret(1), encoder.info());
  EXPECT_EQ(decoder.add(msg), AddResult::bad_size);
}

TEST(Codec, DuplicateMessageNotInnovative) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(2000, 9);
  FileEncoder encoder(secret(1), 1, data, params);
  const auto messages = encoder.generate(2);
  FileDecoder decoder(secret(1), encoder.info());
  EXPECT_EQ(decoder.add(messages[0]), AddResult::accepted);
  EXPECT_EQ(decoder.add(messages[0]), AddResult::non_innovative);
  EXPECT_EQ(decoder.non_innovative(), 1u);
}

TEST(Codec, MessagesAfterCompletionIgnored) {
  const CodingParams params{gf::FieldId::gf2_32, 128};
  const auto data = random_data(600, 10);
  FileEncoder encoder(secret(1), 1, data, params);
  const std::size_t k = encoder.k();
  const auto messages = encoder.generate(k + 1);
  FileDecoder decoder(secret(1), encoder.info());
  for (std::size_t i = 0; i < k; ++i) decoder.add(messages[i]);
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.add(messages[k]), AddResult::already_complete);
}

TEST(Codec, EncoderScreeningRejectsFewIds) {
  // Skip probability per id is ~1/q; over GF(2^32) screening should
  // essentially never skip.
  const CodingParams params{gf::FieldId::gf2_32, 32};
  const auto data = random_data(4000, 11);
  FileEncoder encoder(secret(1), 1, data, params);
  const std::size_t want = 5 * encoder.k();
  encoder.generate(want);
  EXPECT_EQ(encoder.ids_examined(), want);
  EXPECT_EQ(encoder.messages_generated(), want);
}

TEST(Codec, Gf16ScreeningStillProducesDecodableBatches) {
  // Over GF(2^4) dependent rows genuinely occur; screening must skip them
  // and every batch must still decode with exactly k messages.
  const CodingParams params{gf::FieldId::gf2_4, 64};
  const auto data = random_data(500, 12);
  FileEncoder encoder(secret(1), 1, data, params);
  const std::size_t k = encoder.k();
  for (int batch = 0; batch < 4; ++batch) {
    const auto messages = encoder.generate(k);
    FileDecoder decoder(secret(1), encoder.info());
    for (const auto& m : messages)
      EXPECT_EQ(decoder.add(m), AddResult::accepted);
    ASSERT_TRUE(decoder.complete()) << "batch " << batch;
    EXPECT_EQ(decoder.reconstruct(), data);
  }
}

TEST(Codec, InfoDigestAccounting) {
  const CodingParams params = CodingParams::paper_defaults();
  const auto data = random_data(1u << 20, 13);  // exactly 1 MB
  FileEncoder encoder(secret(1), 1, data, params);
  EXPECT_EQ(encoder.k(), 8u);
  encoder.generate(8);
  EXPECT_EQ(encoder.info().digest_bytes(), 128u);  // paper's claim
}

TEST(Codec, SerializationRoundTrip) {
  const CodingParams params{gf::FieldId::gf2_16, 128};
  const auto data = random_data(1500, 14);
  FileEncoder encoder(secret(1), 0xABCD, data, params);
  const auto msg = encoder.generate(1)[0];
  const auto wire = msg.serialize();
  EXPECT_EQ(wire.size(), msg.wire_size());
  const auto parsed = EncodedMessage::deserialize(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->file_id, msg.file_id);
  EXPECT_EQ(parsed->message_id, msg.message_id);
  EXPECT_EQ(parsed->payload, msg.payload);
  EXPECT_EQ(parsed->digest(), msg.digest());
}

TEST(Codec, DeserializeRejectsShortBuffers) {
  const std::vector<std::byte> tiny(10);
  EXPECT_FALSE(EncodedMessage::deserialize(tiny).has_value());
}

TEST(Codec, AddDigestAllowsLateMessages) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(2000, 15);
  FileEncoder encoder(secret(1), 1, data, params);
  const std::size_t k = encoder.k();
  const FileInfo early_info = encoder.info();  // no digests yet

  FileDecoder decoder(secret(1), early_info);
  const auto messages = encoder.generate(k);
  // Without registration they fail authentication...
  EXPECT_EQ(decoder.add(messages[0]), AddResult::bad_digest);
  // ...after fetching digests from the owner they pass.
  for (const auto& m : messages) decoder.add_digest(m.message_id, m.digest());
  for (const auto& m : messages) decoder.add(m);
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.reconstruct(), data);
}

}  // namespace
}  // namespace fairshare::coding
