// A real swarm on localhost: five peer processes-worth of servers on TCP
// ports, RSA-authenticated sessions, coded messages as actual bytes on
// actual sockets, and the aggregation effect measured with wall-clock time
// (each peer paced to a consumer-uplink rate).
//
// This is the paper's Figure 4 made literal: the "user at computer d"
// is the download client; the peers are PeerServer instances.
#include <cstdio>
#include <memory>
#include <vector>

#include "coding/chunked.hpp"
#include "crypto/chacha20.hpp"
#include "net/download_client.hpp"
#include "net/peer_server.hpp"
#include "sim/rng.hpp"

using namespace fairshare;

int main() {
  // --- identities ---------------------------------------------------------
  std::array<std::uint8_t, 32> seed_key{};
  seed_key[0] = 5;
  std::array<std::uint8_t, 12> nonce{};
  crypto::ChaCha20 key_rng(seed_key, nonce, 0);
  const crypto::RsaKeyPair user_key = crypto::RsaKeyPair::generate(512, key_rng);
  std::vector<crypto::RsaKeyPair> peer_keys;
  const std::size_t n_peers = 5;
  for (std::size_t i = 0; i < n_peers; ++i)
    peer_keys.push_back(crypto::RsaKeyPair::generate(512, key_rng));
  std::printf("generated 1 user + %zu peer RSA identities\n", n_peers);

  // --- the file and its coded dissemination ------------------------------
  sim::SplitMix64 rng(42);
  std::vector<std::byte> file(512 * 1024);  // 512 KiB "holiday photos"
  for (auto& b : file) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  coding::SecretKey secret{};
  secret[0] = 99;
  const coding::CodingParams params{gf::FieldId::gf2_32, 1u << 12};  // 16 KiB
  coding::FileEncoder encoder(secret, 1, file, params);

  const double uplink_kbps = 1024.0;  // consumer-ish uplink per peer
  std::vector<std::unique_ptr<net::PeerServer>> servers;
  std::vector<net::PeerEndpoint> endpoints;
  for (std::size_t p = 0; p < n_peers; ++p) {
    p2p::MessageStore store;
    for (auto& m : encoder.generate(encoder.k())) store.store(std::move(m));
    net::PeerServer::Config config;
    config.peer_id = p;
    config.rate_kbps = uplink_kbps;
    config.require_auth = true;
    config.rng_seed = 1000 + p;
    auto server = std::make_unique<net::PeerServer>(config, std::move(store),
                                                    peer_keys[p]);
    server->register_user(7, user_key.pub);
    if (!server->start()) {
      std::printf("failed to bind a port\n");
      return 1;
    }
    net::PeerEndpoint ep;
    ep.port = server->port();
    ep.peer_id = p;
    ep.identity = peer_keys[p].pub;
    endpoints.push_back(ep);
    servers.push_back(std::move(server));
    std::printf("peer %zu serving %zu coded messages on 127.0.0.1:%u at "
                "%.0f kbps\n",
                p, encoder.k(), ep.port, uplink_kbps);
  }

  // --- the remote user pulls from everyone at once ------------------------
  net::DownloadOptions options;
  options.user_id = 7;
  options.user_key = &user_key;
  const net::DownloadReport swarm_report =
      net::download_file(endpoints, secret, encoder.info(), options);
  if (!swarm_report.success) {
    std::printf("swarm download failed (%zu sessions failed)\n",
                swarm_report.sessions_failed);
    return 1;
  }
  const double swarm_kbps =
      file.size() * 8.0 / 1000.0 / swarm_report.seconds;

  // --- compare with a single-peer (home-uplink-only) download -------------
  const std::vector<net::PeerEndpoint> single{endpoints[0]};
  const net::DownloadReport single_report =
      net::download_file(single, secret, encoder.info(), options);
  const double single_kbps =
      single_report.success
          ? file.size() * 8.0 / 1000.0 / single_report.seconds
          : 0.0;

  const bool intact = swarm_report.data == file;
  std::printf("\nswarm : %zu messages in %.2f s -> %.0f kbps (%s)\n",
              swarm_report.messages_accepted, swarm_report.seconds,
              swarm_kbps, intact ? "EXACT" : "CORRUPT");
  std::printf("single: %.2f s -> %.0f kbps\n", single_report.seconds,
              single_kbps);
  std::printf("aggregation speedup over one uplink: %.1fx (peers: %zu)\n",
              swarm_kbps / single_kbps, n_peers);

  for (auto& s : servers) s->stop();
  return (intact && swarm_kbps > 1.5 * single_kbps) ? 0 : 1;
}
