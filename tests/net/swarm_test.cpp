// End-to-end over real sockets: peer servers + parallel download client.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coding/chunked.hpp"
#include "crypto/chacha20.hpp"
#include "net/download_client.hpp"
#include "net/peer_server.hpp"
#include "sim/rng.hpp"

namespace fairshare::net {
namespace {

std::vector<std::byte> blob(std::size_t n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return out;
}

const coding::CodingParams kParams{gf::FieldId::gf2_32, 256};  // 1 KiB msgs

struct Swarm {
  std::vector<std::unique_ptr<PeerServer>> servers;
  std::vector<PeerEndpoint> endpoints;
  coding::FileInfo info;
  std::vector<std::byte> data;
  coding::SecretKey secret{};

  // Disseminate k messages per peer, optionally with auth identities.
  Swarm(std::size_t n_peers, std::size_t bytes, bool auth,
        std::uint64_t user_id, const crypto::RsaPublicKey* user_key,
        const std::vector<crypto::RsaKeyPair>* peer_keys = nullptr) {
    secret[0] = 77;
    data = blob(bytes, 1234);
    coding::FileEncoder encoder(secret, 42, data, kParams);
    for (std::size_t p = 0; p < n_peers; ++p) {
      p2p::MessageStore store;
      for (auto& m : encoder.generate(encoder.k())) store.store(std::move(m));
      PeerServer::Config config;
      config.peer_id = p;
      config.require_auth = auth;
      config.rng_seed = 100 + p;
      std::optional<crypto::RsaKeyPair> identity;
      if (auth && peer_keys) identity = (*peer_keys)[p];
      auto server = std::make_unique<PeerServer>(config, std::move(store),
                                                 std::move(identity));
      if (auth && user_key) server->register_user(user_id, *user_key);
      EXPECT_TRUE(server->start());
      PeerEndpoint ep;
      ep.port = server->port();
      ep.peer_id = p;
      if (auth && peer_keys) ep.identity = (*peer_keys)[p].pub;
      endpoints.push_back(ep);
      servers.push_back(std::move(server));
    }
    info = encoder.info();
  }
};

crypto::ChaCha20 rng_for(std::uint8_t tag) {
  std::array<std::uint8_t, 32> key{};
  key[0] = tag;
  std::array<std::uint8_t, 12> nonce{};
  return crypto::ChaCha20(key, nonce, 0);
}

TEST(NetSwarm, ParallelDownloadOverRealSockets) {
  Swarm swarm(4, 100000, /*auth=*/false, 0, nullptr);
  DownloadOptions options;
  options.user_id = 9;
  const DownloadReport report =
      download_file(swarm.endpoints, swarm.secret, swarm.info, options);
  ASSERT_TRUE(report.success) << "failed sessions: " << report.sessions_failed;
  EXPECT_EQ(report.data, swarm.data);
  EXPECT_EQ(report.sessions_failed, 0u);
  for (auto& s : swarm.servers) s->stop();
}

TEST(NetSwarm, AuthenticatedSwarmDownload) {
  crypto::ChaCha20 krng = rng_for(1);
  const crypto::RsaKeyPair user_key = crypto::RsaKeyPair::generate(512, krng);
  std::vector<crypto::RsaKeyPair> peer_keys;
  for (int i = 0; i < 3; ++i)
    peer_keys.push_back(crypto::RsaKeyPair::generate(512, krng));

  Swarm swarm(3, 50000, /*auth=*/true, /*user_id=*/7, &user_key.pub,
              &peer_keys);
  DownloadOptions options;
  options.user_id = 7;
  options.user_key = &user_key;
  const DownloadReport report =
      download_file(swarm.endpoints, swarm.secret, swarm.info, options);
  ASSERT_TRUE(report.success) << "failed sessions: " << report.sessions_failed;
  EXPECT_EQ(report.data, swarm.data);
  std::size_t auth_rejections = 0;
  for (auto& s : swarm.servers) {
    auth_rejections += s->auth_rejections();
    s->stop();
  }
  EXPECT_EQ(auth_rejections, 0u);
}

TEST(NetSwarm, UnknownUserRejectedByServers) {
  crypto::ChaCha20 krng = rng_for(2);
  const crypto::RsaKeyPair user_key = crypto::RsaKeyPair::generate(512, krng);
  const crypto::RsaKeyPair stranger = crypto::RsaKeyPair::generate(512, krng);
  std::vector<crypto::RsaKeyPair> peer_keys;
  peer_keys.push_back(crypto::RsaKeyPair::generate(512, krng));

  // Server only knows user 7; a stranger (user 8) must be turned away.
  Swarm swarm(1, 20000, /*auth=*/true, /*user_id=*/7, &user_key.pub,
              &peer_keys);
  DownloadOptions options;
  options.user_id = 8;
  options.user_key = &stranger;
  // A server-side rejection looks like a dropped link to the client, so it
  // would be retried; one attempt keeps the rejection count exact.
  options.retry.max_attempts = 1;
  const DownloadReport report =
      download_file(swarm.endpoints, swarm.secret, swarm.info, options);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(swarm.servers[0]->auth_rejections(), 1u);
  EXPECT_EQ(report.sessions_failed, 1u);
  swarm.servers[0]->stop();
}

TEST(NetSwarm, SingleSlowPeerStillCompletes) {
  // One peer alone, paced to ~2 Mbps, still delivers the whole file; the
  // client's stop message ends the session cleanly.
  Swarm swarm(1, 30000, /*auth=*/false, 0, nullptr);
  // Re-start the server with pacing.
  swarm.servers[0]->stop();
  p2p::MessageStore store;
  coding::FileEncoder encoder(swarm.secret, 42, swarm.data, kParams);
  for (auto& m : encoder.generate(encoder.k())) store.store(std::move(m));
  PeerServer::Config config;
  config.rate_kbps = 2000.0;
  config.require_auth = false;
  PeerServer paced(config, std::move(store));
  ASSERT_TRUE(paced.start());
  swarm.endpoints[0].port = paced.port();

  DownloadOptions options;
  const DownloadReport report =
      download_file(swarm.endpoints, swarm.secret, swarm.info, options);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.data, swarm.data);
  // 30 kB at 2 Mbps ~ 0.12 s: pacing had a measurable effect.
  EXPECT_GT(report.seconds, 0.05);
  paced.stop();
}

}  // namespace
}  // namespace fairshare::net
