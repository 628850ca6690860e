// Durable peer state: store/file-info round trips and corruption handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "coding/chunked.hpp"
#include "p2p/persistence.hpp"
#include "sim/rng.hpp"

namespace fairshare::p2p {
namespace {

coding::EncodedMessage msg(std::uint64_t file, std::uint64_t id,
                           std::size_t bytes = 32) {
  coding::EncodedMessage m;
  m.file_id = file;
  m.message_id = id;
  m.payload.resize(bytes);
  for (std::size_t i = 0; i < bytes; ++i)
    m.payload[i] = std::byte{static_cast<std::uint8_t>(id * 7 + i)};
  return m;
}

std::filesystem::path temp_file(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

TEST(Persistence, EmptyStoreRoundTrip) {
  MessageStore store;
  const auto blob = serialize_store(store);
  const auto back = deserialize_store(blob);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->bytes_used(), 0u);
  EXPECT_TRUE(back->file_ids().empty());
}

TEST(Persistence, MultiFileRoundTripPreservesOrderAndBytes) {
  MessageStore store;
  for (std::uint64_t id = 0; id < 5; ++id) store.store(msg(1, id));
  for (std::uint64_t id = 0; id < 3; ++id) store.store(msg(2, 100 + id, 64));

  const auto back = deserialize_store(serialize_store(store));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->file_ids(), store.file_ids());
  EXPECT_EQ(back->bytes_used(), store.bytes_used());
  for (std::uint64_t fid : store.file_ids()) {
    ASSERT_EQ(back->count(fid), store.count(fid));
    for (std::size_t i = 0; i < store.count(fid); ++i) {
      EXPECT_EQ(back->at(fid, i).message_id, store.at(fid, i).message_id);
      EXPECT_EQ(back->at(fid, i).payload, store.at(fid, i).payload);
    }
  }
}

TEST(Persistence, LimitAppliesOnLoad) {
  MessageStore store;
  for (std::uint64_t id = 0; id < 6; ++id) store.store(msg(1, id));
  const auto back = deserialize_store(serialize_store(store), 2);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->count(1), 2u);
}

TEST(Persistence, CorruptionRejected) {
  MessageStore store;
  store.store(msg(1, 0));
  auto blob = serialize_store(store);
  // Bad magic.
  auto bad = blob;
  bad[0] = std::byte{'X'};
  EXPECT_FALSE(deserialize_store(bad).has_value());
  // Bad version.
  bad = blob;
  bad[4] = std::byte{9};
  EXPECT_FALSE(deserialize_store(bad).has_value());
  // Every truncation fails cleanly.
  for (std::size_t len = 0; len < blob.size(); ++len)
    EXPECT_FALSE(deserialize_store({blob.data(), len}).has_value()) << len;
  // Trailing garbage rejected.
  bad = blob;
  bad.push_back(std::byte{0});
  EXPECT_FALSE(deserialize_store(bad).has_value());
}

TEST(Persistence, FileBackedStoreRoundTrip) {
  MessageStore store;
  for (std::uint64_t id = 0; id < 4; ++id) store.store(msg(7, id, 100));
  const auto path = temp_file("fairshare_store_test.bin");
  ASSERT_TRUE(save_store(store, path.string()));
  const auto back = load_store(path.string());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->count(7), 4u);
  std::remove(path.string().c_str());
}

TEST(Persistence, LoadFromMissingFileFails) {
  EXPECT_FALSE(load_store("/nonexistent/fairshare.bin").has_value());
  EXPECT_FALSE(load_file_info("/nonexistent/info.bin").has_value());
}

TEST(Persistence, FileInfoRoundTripThroughDisk) {
  sim::SplitMix64 rng(1);
  std::vector<std::byte> data(2000);
  for (auto& b : data) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  coding::SecretKey secret{};
  coding::FileEncoder enc(secret, 5, data, {gf::FieldId::gf2_32, 64});
  enc.generate(enc.k());

  const auto path = temp_file("fairshare_info_test.bin");
  ASSERT_TRUE(save_file_info(enc.info(), path.string()));
  const auto info = load_file_info(path.string());
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->file_id, 5u);
  EXPECT_EQ(info->message_digests.size(), enc.k());
  std::remove(path.string().c_str());
}

TEST(Persistence, RestartedPeerStillServesDecodableMessages) {
  // Full loop: encode -> store -> save -> load ("restart") -> decode.
  sim::SplitMix64 rng(2);
  std::vector<std::byte> data(4000);
  for (auto& b : data) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  coding::SecretKey secret{};
  secret[0] = 9;
  coding::FileEncoder enc(secret, 3, data, {gf::FieldId::gf2_32, 64});

  MessageStore store;
  for (auto& m : enc.generate(enc.k())) store.store(std::move(m));
  const auto reborn = deserialize_store(serialize_store(store));
  ASSERT_TRUE(reborn.has_value());

  coding::FileDecoder dec(secret, enc.info());
  for (std::size_t i = 0; i < reborn->count(3); ++i) dec.add(reborn->at(3, i));
  ASSERT_TRUE(dec.complete());
  EXPECT_EQ(dec.reconstruct(), data);
}

}  // namespace
}  // namespace fairshare::p2p
