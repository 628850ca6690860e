// The RLNC codec (coding/chunked.hpp): class-map geometry and schedule
// invariants, bit-exact agreement between dense and chunked files, the
// donation cascade under in-order / shuffled / recoded delivery, batch
// parallelism parity, the registry wiring for the chunked metrics, and
// byte-for-byte encoder goldens for chunked and dense files.
//
// Regenerate the encoder goldens (tests/coding/golden) after an
// intentional change with
//   FAIRSHARE_REGEN_GOLDEN=1 ./coding_chunked_test
// and review the diff before committing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "coding/chunked.hpp"
#include "golden.hpp"
#include "obs/metrics.hpp"
#include "p2p/wire.hpp"
#include "sim/rng.hpp"
#include "util/thread_pool.hpp"

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

ChunkedSchedule schedule(std::uint32_t class_size, std::uint32_t overlap,
                         std::uint64_t seed = 7) {
  ChunkedSchedule s;
  s.class_size = class_size;
  s.overlap = overlap;
  s.seed = seed;
  return s;
}

// ------------------------------------------------------------- geometry

void check_map_invariants(std::size_t k, const ChunkedSchedule& s) {
  SCOPED_TRACE(::testing::Message() << "k=" << k << " L=" << s.class_size
                                    << " v=" << s.overlap);
  const chunked::ClassMap map(k, s);
  const std::size_t n = map.classes();
  ASSERT_GE(n, 1u);

  // Window geometry: widths are class_size except the last, which stays
  // strictly wider than the overlap (otherwise it would be a subset of its
  // neighbour); windows tile [0, k) exactly.
  for (std::size_t c = 0; c + 1 < n; ++c)
    EXPECT_EQ(map.width(c), std::min<std::size_t>(s.class_size, k));
  EXPECT_GT(map.width(n - 1), n == 1 ? 0u : s.overlap);
  EXPECT_LE(map.width(n - 1), s.class_size);
  EXPECT_EQ(map.start(n - 1) + map.width(n - 1), k);
  std::size_t widest = 0;
  for (std::size_t c = 0; c < n; ++c) widest = std::max(widest, map.width(c));
  EXPECT_EQ(map.max_width(), widest);

  // Every chunk is covered, and classes_containing agrees with contains()
  // and is sorted ascending.
  for (std::size_t j = 0; j < k; ++j) {
    const auto owners = map.classes_containing(j);
    ASSERT_GE(owners.size(), 1u) << "chunk " << j << " uncovered";
    EXPECT_TRUE(std::is_sorted(owners.begin(), owners.end()));
    for (std::size_t c = 0; c < n; ++c) {
      const bool listed =
          std::find(owners.begin(), owners.end(), c) != owners.end();
      EXPECT_EQ(listed, map.contains(c, j)) << "chunk " << j << " class " << c;
    }
  }

  // Quota schedule: over one period of k ids, class c appears exactly
  // q_c = w_c - (c > 0 ? overlap : 0) times, and the quotas sum to k — the
  // identity that makes in-order delivery land ~zero overhead.
  std::vector<std::size_t> visits(n, 0);
  for (std::size_t id = 0; id < k; ++id) {
    const std::size_t c = map.class_of(id);
    ASSERT_LT(c, n);
    ++visits[c];
  }
  std::size_t total = 0;
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t quota = map.width(c) - (c > 0 ? s.overlap : 0);
    EXPECT_EQ(visits[c], quota) << "class " << c;
    total += visits[c];
  }
  EXPECT_EQ(total, k);

  // The schedule is periodic in k, so recoders agree on classes for ids
  // far past the first period.
  for (std::uint64_t id = 0; id < std::min<std::size_t>(k, 64); ++id)
    EXPECT_EQ(map.class_of(id), map.class_of(id + 3 * k));
}

TEST(ClassMap, InvariantsAcrossGeometries) {
  // k < L, k == L, k % stride != 0, short last chunk, zero overlap,
  // overlap wider than the stride (chunks owned by 3+ classes).
  check_map_invariants(5, schedule(16, 4));
  check_map_invariants(16, schedule(16, 4));
  check_map_invariants(100, schedule(16, 4));
  check_map_invariants(97, schedule(16, 4));
  check_map_invariants(100, schedule(16, 0));
  check_map_invariants(60, schedule(16, 12));
  check_map_invariants(101, schedule(7, 3, 99));
  check_map_invariants(64, schedule(64, 8));  // defaults, single class
}

TEST(ClassMap, SingleClassWhenFileIsSmall) {
  const chunked::ClassMap map(10, schedule(16, 4));
  EXPECT_EQ(map.classes(), 1u);
  EXPECT_EQ(map.width(0), 10u);
  EXPECT_EQ(map.max_width(), 10u);
  for (std::uint64_t id = 0; id < 40; ++id) EXPECT_EQ(map.class_of(id), 0u);
  for (std::size_t j = 0; j < 10; ++j)
    EXPECT_EQ(map.classes_containing(j), std::vector<std::size_t>{0});
}

TEST(ClassMap, SeedChangesInterleavingNotQuotas) {
  const chunked::ClassMap a(100, schedule(16, 4, 1));
  const chunked::ClassMap b(100, schedule(16, 4, 2));
  std::map<std::size_t, std::size_t> visits_a, visits_b;
  bool any_difference = false;
  for (std::uint64_t id = 0; id < 100; ++id) {
    ++visits_a[a.class_of(id)];
    ++visits_b[b.class_of(id)];
    any_difference = any_difference || a.class_of(id) != b.class_of(id);
  }
  EXPECT_EQ(visits_a, visits_b);  // quotas are seed-independent
  EXPECT_TRUE(any_difference);    // the interleaving is not
}

// ------------------------------------------------------------- decoding

TEST(Chunked, InOrderExactlyKMessagesDecode) {
  // The quota schedule's contract: k in-order messages complete the file
  // with zero reception overhead — class 0 fills from its quota, and every
  // later class fills from its quota plus the overlap donation cascade.
  // Fully deterministic (ChaCha coefficients + seeded schedule), so this
  // strict form cannot flake.
  const CodingParams params{gf::FieldId::gf2_32, 64};  // 256 B chunks
  const auto data = random_data(12700, 3);             // k = 50, padded tail
  chunked::Encoder encoder(secret(3), 500, data, params, schedule(16, 4));
  const std::size_t k = encoder.k();
  ASSERT_EQ(k, 50u);
  ASSERT_GT(encoder.class_map().classes(), 2u);

  const auto messages = encoder.generate(k);  // also publishes digests
  chunked::Decoder decoder(secret(3), encoder.info());
  std::size_t fed = 0;
  for (const auto& msg : messages) {
    ASSERT_FALSE(decoder.complete());
    EXPECT_EQ(decoder.add(msg), AddResult::accepted) << "message " << fed;
    ++fed;
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(fed, k);
  EXPECT_EQ(decoder.accepted(), k);
  EXPECT_EQ(decoder.classes_complete(), decoder.class_map().classes());
  EXPECT_EQ(decoder.reconstruct(), data);

  // rank() counts every class's full width: k plus one overlap per seam.
  std::size_t width_sum = 0;
  for (std::size_t c = 0; c < decoder.class_map().classes(); ++c)
    width_sum += decoder.class_map().width(c);
  EXPECT_EQ(decoder.rank(), width_sum);
}

TEST(Chunked, MatchesDenseDecoderBitExactly) {
  // Differential test: both codecs on identical payload bytes must agree
  // with each other and the source exactly.
  const CodingParams params{gf::FieldId::gf2_8, 64};
  const auto data = random_data(6350, 4);  // k = 100
  const auto key = secret(4);

  FileEncoder dense_enc(key, 77, data, params);
  const auto dense_messages = dense_enc.generate(dense_enc.k());
  FileDecoder dense_dec(key, dense_enc.info());
  for (const auto& msg : dense_messages) dense_dec.add(msg);
  ASSERT_TRUE(dense_dec.complete());

  chunked::Encoder chunked_enc(key, 77, data, params, schedule(16, 4));
  ASSERT_EQ(chunked_enc.k(), dense_enc.k());
  const auto chunked_messages = chunked_enc.generate(2 * chunked_enc.k());
  chunked::Decoder chunked_dec(key, chunked_enc.info());
  for (const auto& msg : chunked_messages) {
    if (chunked_dec.complete()) break;
    chunked_dec.add(msg);
  }
  ASSERT_TRUE(chunked_dec.complete());

  const auto via_dense = dense_dec.reconstruct();
  const auto via_chunked = chunked_dec.reconstruct();
  EXPECT_EQ(via_dense, data);
  EXPECT_EQ(via_chunked, data);
  EXPECT_EQ(via_chunked, via_dense);
}

// gtest prints a struct without operator<< as its raw bytes, and CTest
// names each case by that print. The padding after `field` is therefore
// an explicit zeroed member: left implicit, it holds stack leftovers
// (addresses, under ASLR) and the case names change from build to build.
struct GeometryCase {
  GeometryCase(gf::FieldId field_, std::size_t m_, std::size_t data_bytes_,
               std::uint32_t class_size_, std::uint32_t overlap_)
      : field(field_),
        m(m_),
        data_bytes(data_bytes_),
        class_size(class_size_),
        overlap(overlap_) {}

  gf::FieldId field;
  std::uint8_t zero_padding[sizeof(std::size_t) - sizeof(gf::FieldId)]{};
  std::size_t m;
  std::size_t data_bytes;
  std::uint32_t class_size;
  std::uint32_t overlap;
};

class ChunkedGeometryTest : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(ChunkedGeometryTest, ShuffledDeliveryDecodes) {
  const auto& c = GetParam();
  const CodingParams params{c.field, c.m};
  const auto data = random_data(c.data_bytes, 5);
  chunked::Encoder encoder(secret(5), 42, data, params,
                           schedule(c.class_size, c.overlap));

  // Three periods shuffled: every class sees enough rows regardless of
  // where the cut lands, and the cascade handles completion in any order.
  auto messages = encoder.generate(3 * encoder.k());
  sim::SplitMix64 rng(0xABCDEF);
  for (std::size_t i = messages.size(); i > 1; --i)
    std::swap(messages[i - 1], messages[rng.next_below(i)]);

  chunked::Decoder decoder(secret(5), encoder.info());
  std::size_t fed = 0;
  for (const auto& msg : messages) {
    if (decoder.complete()) break;
    decoder.add(msg);
    ++fed;
  }
  ASSERT_TRUE(decoder.complete()) << "after " << fed << " of "
                                  << messages.size();
  EXPECT_EQ(decoder.reconstruct(), data);
  EXPECT_GE(fed, encoder.k());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChunkedGeometryTest,
    ::testing::Values(
        // k = 100 with a short (width-4+) last class.
        GeometryCase{gf::FieldId::gf2_8, 64, 6400, 16, 4},
        // k = 50 not divisible by the stride, padded final chunk.
        GeometryCase{gf::FieldId::gf2_32, 64, 12700, 16, 4},
        // Disjoint classes: no donations, quotas alone must suffice.
        GeometryCase{gf::FieldId::gf2_16, 64, 12800, 20, 0},
        // Overlap wider than the stride: chunks shared by 4 classes.
        GeometryCase{gf::FieldId::gf2_8, 32, 1900, 16, 12},
        // Single class: degenerates to the dense decoder's behaviour.
        GeometryCase{gf::FieldId::gf2_8, 64, 640, 16, 4},
        // Nibble-packed field, tiny classes.
        GeometryCase{gf::FieldId::gf2_4, 128, 4000, 8, 2}));

// -------------------------------------------------------------- goldens

std::string hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  char buf[3];
  for (std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

// The header line, every message's id and wire digest in generation
// order, then the serialized FileInfo as 32-byte hex lines.
std::string render_transcript(const std::string& header,
                              const std::vector<EncodedMessage>& messages,
                              const FileInfo& info) {
  std::string out = header + "\n";
  for (const auto& msg : messages) {
    EXPECT_EQ(msg.payload.size(), info.params.message_bytes());
    out += std::to_string(msg.message_id) + " " + hex(msg.digest()) + "\n";
  }
  const auto frame = p2p::wire::encode(info);
  const std::string info_hex = hex(std::span(
      reinterpret_cast<const std::uint8_t*>(frame.data()), frame.size()));
  out += "file_info " + std::to_string(frame.size()) + " bytes\n";
  for (std::size_t i = 0; i < info_hex.size(); i += 64)
    out += info_hex.substr(i, 64) + "\n";
  return out;
}

// Every message's id and wire digest (which covers file id, id and
// payload) in generation order, then the serialized FileInfo.  The calls
// mix generate(1), next_message(), generate(7) and a generate(2k) that
// runs through a per-class rank reset, so a change to screening, to the
// order messages come out in, or to the digest bookkeeping shows up as a
// diff.  The FileInfo frame lists digests sorted by id, so it pins the
// digest table's contents.
std::string encoder_transcript(const GeometryCase& c) {
  const CodingParams params{c.field, c.m};
  const auto data = random_data(c.data_bytes, 12);
  chunked::Encoder encoder(secret(12), 49, data, params,
                           schedule(c.class_size, c.overlap));
  const chunked::ClassMap& map = encoder.class_map();
  std::vector<EncodedMessage> messages;
  const auto take = [&](std::vector<EncodedMessage> batch) {
    for (auto& msg : batch) messages.push_back(std::move(msg));
  };
  const auto class0_count = [&] {
    return std::count_if(messages.begin(), messages.end(), [&](const auto& m) {
      return map.class_of(m.message_id) == 0;
    });
  };

  take(encoder.generate(1));
  messages.push_back(encoder.next_message());
  take(encoder.generate(7));
  // Class 0's rank resets once it has accepted width(0) rows; the long
  // call must produce rows on both sides of that reset.
  const auto before = static_cast<std::size_t>(class0_count());
  take(encoder.generate(2 * encoder.k()));
  const auto after = static_cast<std::size_t>(class0_count());
  EXPECT_LT(before, map.width(0));
  EXPECT_GT(after, map.width(0));
  messages.push_back(encoder.next_message());
  EXPECT_EQ(encoder.messages_generated(), messages.size());

  return render_transcript(
      "field_bits " + std::to_string(gf::field_bits(c.field)) + " m " +
          std::to_string(c.m) + " bytes " + std::to_string(c.data_bytes) +
          " classes " + std::to_string(c.class_size) + "/" +
          std::to_string(c.overlap) + " k " + std::to_string(encoder.k()) +
          " ids_examined " + std::to_string(encoder.ids_examined()),
      messages, encoder.info());
}

std::string golden_name(const GeometryCase& c) {
  return "encoder_q" + std::to_string(gf::field_bits(c.field)) + "_m" +
         std::to_string(c.m) + "_b" + std::to_string(c.data_bytes) + "_c" +
         std::to_string(c.class_size) + "_" + std::to_string(c.overlap) +
         ".txt";
}

TEST_P(ChunkedGeometryTest, EncoderMatchesGolden) {
  golden::compare_golden(encoder_transcript(GetParam()),
                         golden_name(GetParam()));
}

TEST(Chunked, MultiClassWideFieldEncoderMatchesGolden) {
  // Three 64/8 classes over GF(2^32) with 80000-byte rows, which span more
  // than one of generate()'s 64 KiB tiles and end in a partial one.
  const GeometryCase c{gf::FieldId::gf2_32, 20000, 12u << 20, 64, 8};
  golden::compare_golden(encoder_transcript(c), golden_name(c));
}

// The paper's dense code (no class schedule) at three geometries: a
// nibble field with odd k, whose screening skips ids; the photos
// workload's GF(2^8), m = 4096; and the paper's defaults (GF(2^32),
// m = 2^15, k = 8 for 1 MB).  Same call sequence as encoder_transcript.
struct DenseCase {
  gf::FieldId field;
  std::size_t m;
  std::size_t data_bytes;
};

const DenseCase kDenseCases[] = {
    {gf::FieldId::gf2_4, 64, 660},        // k = 21, one id screened out
    {gf::FieldId::gf2_8, 4096, 100000},   // k = 25, padded tail
    {gf::FieldId::gf2_32, 1u << 15, 1u << 20},  // k = 8
};

std::string dense_name(const DenseCase& c) {
  return "encoder_q" + std::to_string(gf::field_bits(c.field)) + "_m" +
         std::to_string(c.m) + "_b" + std::to_string(c.data_bytes) +
         "_dense.txt";
}

std::string dense_transcript(const DenseCase& c) {
  const CodingParams params{c.field, c.m};
  const auto data = random_data(c.data_bytes, 12);
  FileEncoder encoder(secret(12), 49, data, params);
  EXPECT_EQ(encoder.info().codec, CodecKind::dense);
  std::vector<EncodedMessage> messages;
  const auto take = [&](std::vector<EncodedMessage> batch) {
    for (auto& msg : batch) messages.push_back(std::move(msg));
  };
  take(encoder.generate(1));
  messages.push_back(encoder.next_message());
  take(encoder.generate(7));
  take(encoder.generate(2 * encoder.k()));  // crosses a rank reset
  messages.push_back(encoder.next_message());
  EXPECT_EQ(encoder.messages_generated(), messages.size());

  return render_transcript(
      "field_bits " + std::to_string(gf::field_bits(c.field)) + " m " +
          std::to_string(c.m) + " bytes " + std::to_string(c.data_bytes) +
          " dense k " + std::to_string(encoder.k()) + " ids_examined " +
          std::to_string(encoder.ids_examined()),
      messages, encoder.info());
}

TEST(Dense, EncoderMatchesGolden) {
  for (const DenseCase& c : kDenseCases) {
    SCOPED_TRACE(dense_name(c));
    golden::compare_golden(dense_transcript(c), dense_name(c));
  }
}

// A dense FileInfo frame as written before the codecs were unified (no
// codec trailer, digests in the order the old encoder recorded them).  It
// must still authenticate and decode the messages the encoder produces
// today from the same inputs.
TEST(Dense, DecodesStoredDenseFileInfoFrame) {
  const DenseCase c = kDenseCases[1];
  const std::string text = golden::read_file(
      std::string(GOLDEN_DIR) + "/dense_q8_m4096_b100000_file_info.txt");
  ASSERT_FALSE(text.empty());
  const std::size_t eol = text.find('\n');
  ASSERT_NE(eol, std::string::npos);
  std::string digits;
  for (char ch : text.substr(eol + 1))
    if (ch != '\n') digits += ch;
  std::vector<std::byte> frame;
  for (std::size_t i = 0; i + 1 < digits.size(); i += 2)
    frame.push_back(
        static_cast<std::byte>(std::stoi(digits.substr(i, 2), nullptr, 16)));
  ASSERT_EQ(text.substr(0, text.find('\n')),
            "file_info " + std::to_string(frame.size()) + " bytes");

  const auto info = p2p::wire::decode_file_info(frame);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->codec, CodecKind::dense);
  EXPECT_EQ(info->k, 25u);

  const CodingParams params{c.field, c.m};
  const auto data = random_data(c.data_bytes, 12);
  FileEncoder encoder(secret(12), 49, data, params);
  const auto messages = encoder.generate(2 * encoder.k());
  FileDecoder decoder(secret(12), *info);  // the frame's digests only
  for (const auto& msg : messages) {
    if (decoder.complete()) break;
    EXPECT_EQ(decoder.add(msg), AddResult::accepted) << msg.message_id;
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.rejected_auth(), 0u);
  EXPECT_EQ(decoder.reconstruct(), data);
  EXPECT_EQ(crypto::Md5::hash(data), info->content_digest);
}

// ------------------------------------------------------------ recoding

TEST(Chunked, RecodedClassLocalPacketsDecode) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(12800, 6);  // k = 50
  chunked::Encoder encoder(secret(6), 43, data, params, schedule(16, 4));
  const auto pool = encoder.generate(2 * encoder.k());
  const chunked::ClassMap& map = encoder.class_map();

  // A peer recodes inside each class; the decoder expands the packets
  // against that class's solver and the cascade finishes the file.
  chunked::Decoder decoder(secret(6), encoder.info());
  sim::SplitMix64 rng(99);
  std::size_t attempts = 0;
  while (!decoder.complete()) {
    ASSERT_LT(attempts, 40 * map.classes()) << "recoded decode stalled";
    const std::size_t cls = attempts % map.classes();
    ++attempts;
    const auto packet =
        chunked::recode_class_local(map, cls, pool, params, rng);
    decoder.add_recoded(packet);
  }
  EXPECT_EQ(decoder.reconstruct(), data);
  EXPECT_EQ(decoder.rejected_auth(), 0u);
}

TEST(Chunked, CrossClassRecodedPacketRejected) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(12800, 7);
  chunked::Encoder encoder(secret(7), 44, data, params, schedule(16, 4));
  const auto pool = encoder.generate(encoder.k());
  const chunked::ClassMap& map = encoder.class_map();
  ASSERT_GE(map.classes(), 2u);

  // Find one message of class 0 and one of another class and combine them:
  // under the chunked protocol that packet is malformed.
  RecodedMessage cross;
  cross.file_id = 44;
  for (const auto& msg : pool) {
    const std::size_t cls = map.class_of(msg.message_id);
    if ((cls == 0 && cross.combination.empty()) ||
        (cls != 0 && cross.combination.size() == 1)) {
      cross.combination.emplace_back(msg.message_id, 1);
      if (cross.payload.empty())
        cross.payload = msg.payload;  // payload content is irrelevant here
    }
    if (cross.combination.size() == 2) break;
  }
  ASSERT_EQ(cross.combination.size(), 2u);

  chunked::Decoder decoder(secret(7), encoder.info());
  EXPECT_EQ(decoder.add_recoded(cross), AddResult::bad_digest);
  RecodedMessage empty;
  empty.file_id = 44;
  empty.payload = cross.payload;
  EXPECT_EQ(decoder.add_recoded(empty), AddResult::bad_digest);
  EXPECT_EQ(decoder.rejected_auth(), 2u);
  EXPECT_EQ(decoder.accepted(), 0u);
}

// -------------------------------------------------------- authentication

TEST(Chunked, TamperedAndForeignMessagesRejected) {
  const CodingParams params{gf::FieldId::gf2_8, 64};
  const auto data = random_data(3200, 8);  // k = 50
  chunked::Encoder encoder(secret(8), 45, data, params, schedule(16, 4));
  auto messages = encoder.generate(encoder.k());
  chunked::Decoder decoder(secret(8), encoder.info());

  auto tampered = messages[0];
  tampered.payload[5] ^= std::byte{0x40};
  EXPECT_EQ(decoder.add(tampered), AddResult::bad_digest);

  auto unknown = messages[1];
  unknown.message_id += 1000 * encoder.k();  // owner never published a digest
  EXPECT_EQ(decoder.add(unknown), AddResult::bad_digest);

  auto foreign = messages[2];
  foreign.file_id = 999;
  EXPECT_EQ(decoder.add(foreign), AddResult::wrong_file);

  auto short_payload = messages[3];
  short_payload.payload.resize(short_payload.payload.size() - 1);
  EXPECT_EQ(decoder.add(short_payload), AddResult::bad_size);

  EXPECT_EQ(decoder.accepted(), 0u);
  EXPECT_EQ(decoder.rejected_auth(), 2u);

  // The untouched batch still decodes afterwards.
  for (const auto& msg : messages) decoder.add(msg);
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.reconstruct(), data);

  // Replays after completion are acknowledged as such.
  EXPECT_EQ(decoder.add(messages[0]), AddResult::already_complete);
}

// ------------------------------------------------------------- add_many

TEST(Chunked, AddManyMatchesPerMessageAddWithAndWithoutPool) {
  // Per-class payload work must clear linalg::kMinChunkSymbols for the
  // pooled branch to engage: m = 1024 symbols and ~26 messages per class
  // put every class well past the threshold.
  const CodingParams params{gf::FieldId::gf2_8, 1024};
  const auto data = random_data(64 * 1024, 9);  // k = 64
  chunked::Encoder encoder(secret(9), 46, data, params, schedule(16, 4));
  auto messages = encoder.generate(2 * encoder.k());
  sim::SplitMix64 rng(0x5EED);
  for (std::size_t i = messages.size(); i > 1; --i)
    std::swap(messages[i - 1], messages[rng.next_below(i)]);

  chunked::Decoder serial(secret(9), encoder.info());
  for (const auto& msg : messages) serial.add(msg);

  chunked::Decoder batch_inline(secret(9), encoder.info());
  batch_inline.add_many(messages, /*pool=*/nullptr);

  util::ThreadPool pool(4);
  chunked::Decoder batch_pooled(secret(9), encoder.info());
  batch_pooled.add_many(messages, &pool);

  // All three reach the same decode state and bytes.  Acceptance tallies
  // are allowed to differ between serial and batch: serial add() stops
  // counting once the file completes (already_complete), and add_many
  // defers the donation cascade until after its barrier, so coded rows a
  // donation would have made redundant are absorbed as innovative.
  for (const chunked::Decoder* d :
       {&serial, &batch_inline, &batch_pooled}) {
    ASSERT_TRUE(d->complete());
    EXPECT_EQ(d->rank(), serial.rank());
    EXPECT_GE(d->accepted(), encoder.k());
    EXPECT_LE(d->accepted() + d->non_innovative(), messages.size());
    EXPECT_EQ(d->reconstruct(), data);
  }
  // The pool changes scheduling, never results: pooled add_many must match
  // the inline pass counter for counter.
  EXPECT_EQ(batch_pooled.accepted(), batch_inline.accepted());
  EXPECT_EQ(batch_pooled.non_innovative(), batch_inline.non_innovative());
  EXPECT_EQ(batch_pooled.classes_complete(), batch_inline.classes_complete());
}

// ---------------------------------------------------------- codec switch

TEST(CodecDecoder, DispatchesOnFileInfoCodec) {
  const CodingParams params{gf::FieldId::gf2_8, 64};
  const auto data = random_data(3200, 10);
  const auto key = secret(10);

  FileEncoder dense_enc(key, 47, data, params);
  ASSERT_EQ(dense_enc.info().codec, CodecKind::dense);
  const auto dense_messages = dense_enc.generate(dense_enc.k());
  CodecDecoder dense_dec(key, dense_enc.info());
  for (const auto& msg : dense_messages) dense_dec.add(msg);
  ASSERT_TRUE(dense_dec.complete());
  EXPECT_EQ(dense_dec.reconstruct(), data);

  chunked::Encoder chunked_enc(key, 47, data, params, schedule(16, 4));
  ASSERT_EQ(chunked_enc.info().codec, CodecKind::chunked);
  ASSERT_EQ(chunked_enc.info().schedule, schedule(16, 4));
  const auto chunked_messages = chunked_enc.generate(2 * chunked_enc.k());
  CodecDecoder chunked_dec(key, chunked_enc.info());
  for (const auto& msg : chunked_messages) {
    if (chunked_dec.complete()) break;
    chunked_dec.add(msg);
  }
  ASSERT_TRUE(chunked_dec.complete());
  EXPECT_EQ(chunked_dec.reconstruct(), data);
  EXPECT_EQ(chunked_dec.k(), chunked_enc.k());
  EXPECT_GE(chunked_dec.accepted(), chunked_enc.k());
}

// -------------------------------------------------------------- metrics

TEST(Chunked, MetricsMirrorDecoderState) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(12800, 11);  // k = 50
  chunked::Encoder encoder(secret(11), 48, data, params, schedule(16, 4));
  const chunked::ClassMap& map = encoder.class_map();

  const auto messages = encoder.generate(encoder.k());
  obs::MetricsRegistry registry;
  chunked::Decoder decoder(secret(11), encoder.info());
  decoder.enable_metrics(registry, /*user_id=*/9);
  for (const auto& msg : messages) decoder.add(msg);
  ASSERT_TRUE(decoder.complete());

  // Registry must equal the decoder's own report exactly: the total-rank
  // gauge (split from dense by the codec label), one gauge per class at
  // its full width, and the classes-complete counter.
  const auto snap = registry.snapshot();
  bool saw_rank = false;
  std::size_t class_gauges = 0;
  for (const auto& g : snap.gauges) {
    if (g.name == "fairshare_decoder_rank") {
      saw_rank = true;
      const obs::LabelList want = {{"codec", "chunked"},
                                   {"file", "48"},
                                   {"user", "9"}};
      EXPECT_EQ(g.labels, want);
      EXPECT_EQ(g.value, static_cast<double>(decoder.rank()));
    } else if (g.name == "fairshare_chunked_class_rank") {
      ASSERT_EQ(g.labels.size(), 3u);
      ASSERT_EQ(g.labels[0].first, "class");
      const std::size_t cls = std::stoul(g.labels[0].second);
      ASSERT_LT(cls, map.classes());
      EXPECT_EQ(g.value, static_cast<double>(map.width(cls)))
          << "class " << cls << " not at full rank";
      ++class_gauges;
    }
  }
  EXPECT_TRUE(saw_rank);
  EXPECT_EQ(class_gauges, map.classes());
  EXPECT_EQ(
      registry.counter_total("fairshare_chunked_classes_complete_total"),
      decoder.classes_complete());

  // The decode-time histogram carries the codec label and one sample per
  // timed elimination.  In this deterministic in-order run every
  // elimination was innovative — k coded rows plus the donated overlap
  // rows — so the sample count equals the total rank exactly.
  ASSERT_EQ(decoder.non_innovative(), 0u);
  bool saw_hist = false;
  for (const auto& h : snap.histograms) {
    if (h.name != "fairshare_decoder_eliminate_ns") continue;
    saw_hist = true;
    const obs::LabelList want = {{"codec", "chunked"},
                                 {"file", "48"},
                                 {"user", "9"}};
    EXPECT_EQ(h.labels, want);
    EXPECT_EQ(h.snap.count, decoder.rank());
  }
  EXPECT_TRUE(saw_hist);
}

}  // namespace
}  // namespace fairshare::coding
