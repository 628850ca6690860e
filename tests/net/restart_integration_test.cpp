// Cross-module integration: a peer persists its store to disk, "restarts"
// (fresh server from the saved bytes), and serves a real TCP download; the
// user's metadata likewise round-trips through disk.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "coding/chunked.hpp"
#include "net/download_client.hpp"
#include "net/peer_server.hpp"
#include "p2p/persistence.hpp"
#include "sim/rng.hpp"

namespace fairshare {
namespace {

TEST(RestartIntegration, PeerServesFromReloadedStore) {
  // Owner encodes and hands a peer its messages.
  sim::SplitMix64 rng(5);
  std::vector<std::byte> file(40000);
  for (auto& b : file) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  coding::SecretKey secret{};
  secret[0] = 31;
  const coding::CodingParams params{gf::FieldId::gf2_32, 256};
  coding::FileEncoder encoder(secret, 11, file, params);

  p2p::MessageStore store;
  for (auto& m : encoder.generate(encoder.k())) store.store(std::move(m));

  // Persist peer store and user metadata to disk.
  const auto dir = std::filesystem::temp_directory_path();
  const auto store_path = (dir / "fs_restart_store.bin").string();
  const auto info_path = (dir / "fs_restart_info.bin").string();
  ASSERT_TRUE(p2p::save_store(store, store_path));
  ASSERT_TRUE(p2p::save_file_info(encoder.info(), info_path));

  // "Restart": everything below uses only the files on disk + the secret.
  auto reloaded = p2p::load_store(store_path);
  ASSERT_TRUE(reloaded.has_value());
  auto info = p2p::load_file_info(info_path);
  ASSERT_TRUE(info.has_value());

  net::PeerServer::Config config;
  config.require_auth = false;
  net::PeerServer server(config, std::move(*reloaded));
  ASSERT_TRUE(server.start());

  net::PeerEndpoint endpoint;
  endpoint.port = server.port();
  net::DownloadOptions options;
  const net::DownloadReport report =
      net::download_file({endpoint}, secret, *info, options);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.data, file);
  server.stop();

  std::remove(store_path.c_str());
  std::remove(info_path.c_str());
}

}  // namespace
}  // namespace fairshare
