// Federated swarm end to end: several PeerServer+DiscoveryNode pairs over
// real TCP, clients that find providers purely through DHT lookups (no
// static peer list), survival of a discovery-node kill mid-download, and
// the Eq. (2) payoff — contribution earned at server A buys allocation
// share at server B through the gossiped ledger.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "coding/encoder.hpp"
#include "disco/client.hpp"
#include "disco/node.hpp"
#include "net/download_client.hpp"
#include "net/peer_server.hpp"
#include "sim/rng.hpp"

namespace fairshare::disco {
namespace {

using namespace std::chrono_literals;

constexpr std::uint64_t kFileId = 42;
constexpr dht::RingId kIds[] = {
    0x2000000000000000ull, 0x6000000000000000ull, 0xa000000000000000ull,
    0xe000000000000000ull};

std::vector<std::byte> blob(std::size_t n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return out;
}

bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds timeout = 8s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return pred();
}

// A federation: n cooperating server processes' worth of state — each
// "process" is one DiscoveryNode + one PeerServer announcing into it.
struct Federation {
  std::vector<std::shared_ptr<DiscoveryNode>> nodes;
  std::vector<std::unique_ptr<net::PeerServer>> servers;
  coding::FileInfo info;
  std::vector<std::byte> data;
  coding::SecretKey secret{};

  explicit Federation(std::size_t n, double rate_kbps = 0.0,
                      std::size_t bytes = 60'000) {
    secret[0] = 99;
    data = blob(bytes, 4321);
    const coding::CodingParams params{gf::FieldId::gf2_32, 256};
    coding::FileEncoder encoder(secret, kFileId, data, params);

    for (std::size_t i = 0; i < n; ++i) {
      NodeConfig node_config;
      node_config.ring_id = kIds[i];
      node_config.origin_id = 100 + i;  // the server's peer_id
      node_config.gossip_period_ms = 50;
      node_config.reannounce_period_ms = 200;
      node_config.provider_ttl_ms = 60'000;
      node_config.io_timeout_ms = 1'000;
      node_config.rng_seed = 500 + i;
      if (i > 0) node_config.seeds = {nodes[0]->self()};
      auto node = std::make_shared<DiscoveryNode>(std::move(node_config));
      EXPECT_TRUE(node->start());
      nodes.push_back(node);

      p2p::MessageStore store;
      for (auto& m : encoder.generate(encoder.k())) store.store(std::move(m));
      net::PeerServer::Config config;
      config.peer_id = 100 + i;
      config.require_auth = false;
      config.rate_kbps = rate_kbps;
      config.rng_seed = 300 + i;
      config.discovery = node;
      auto server =
          std::make_unique<net::PeerServer>(config, std::move(store));
      EXPECT_TRUE(server->start());
      servers.push_back(std::move(server));
    }
    // message_digests covers every message generated so far, so the
    // client metadata is taken only after all stores are stocked.
    info = encoder.info();
  }

  ~Federation() {
    for (auto& server : servers) server->stop();
    for (auto& node : nodes) node->stop();
  }

  bool converged() const {
    for (const auto& node : nodes)
      if (node->status().members.size() != nodes.size()) return false;
    return true;
  }

  ClientConfig disco_config() const {
    ClientConfig config;
    for (const auto& node : nodes) config.seeds.push_back(node->self());
    return config;
  }

  /// All provider records for the file are resolvable (one per server).
  bool fully_announced() const {
    const Client client(disco_config());
    return client.resolve(kFileId).size() == servers.size();
  }
};

TEST(Federation, DownloadWithPeersResolvedPurelyViaDht) {
  Federation fed(3);
  ASSERT_TRUE(wait_until([&] { return fed.converged(); }));
  ASSERT_TRUE(wait_until([&] { return fed.fully_announced(); }))
      << "not every server's announce reached the owner";

  // No static list at all: endpoints come exclusively from DHT lookups.
  int hops = 0;
  const auto peers = resolve_peers(kFileId, fed.disco_config(), {}, &hops);
  ASSERT_EQ(peers.size(), 3u);
  EXPECT_GE(hops, 1);

  net::DownloadOptions options;
  options.user_id = 7;
  const auto report =
      net::download_file(peers, fed.secret, fed.info, options);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.data, fed.data);
}

TEST(Federation, ResolutionSurvivesDiscoveryNodeKillMidDownload) {
  Federation fed(4);
  ASSERT_TRUE(wait_until([&] { return fed.converged(); }));
  ASSERT_TRUE(wait_until([&] { return fed.fully_announced(); }));

  const auto peers = resolve_peers(kFileId, fed.disco_config(), {});
  ASSERT_EQ(peers.size(), 4u);

  // Identify the discovery node that OWNS the file's records, so the kill
  // hits the worst-case member.
  dht::ChordRing reference;
  for (const dht::RingId id : kIds) reference.join(id);
  const dht::RingId owner = reference.successor(file_key(kFileId));
  std::size_t owner_index = 0;
  for (std::size_t i = 0; i < 4; ++i)
    if (kIds[i] == owner) owner_index = i;

  // Start the download, kill the owner node while it is in flight.
  net::DownloadOptions options;
  options.user_id = 8;
  std::atomic<bool> killed{false};
  std::thread killer([&] {
    std::this_thread::sleep_for(20ms);
    fed.nodes[owner_index]->stop();
    killed = true;
  });
  const auto report =
      net::download_file(peers, fed.secret, fed.info, options);
  killer.join();
  ASSERT_TRUE(killed);
  ASSERT_TRUE(report.success) << "download died with the discovery node";
  EXPECT_EQ(report.data, fed.data);

  // Resolution must still work: walks started at surviving seeds land on
  // the dead owner's successors, which hold the replicated records (and
  // once eviction + re-announce settle, on the new owner).
  ClientConfig survivors;
  for (std::size_t i = 0; i < 4; ++i)
    if (i != owner_index) survivors.seeds.push_back(fed.nodes[i]->self());
  EXPECT_TRUE(wait_until([&] {
    return !resolve_peers(kFileId, survivors, {}).empty();
  })) << "resolution never recovered after the owner kill";
  const auto after = resolve_peers(kFileId, survivors, {});
  EXPECT_GE(after.size(), 1u);
}

TEST(Federation, ContributionGossipEarnsShareAtForeignServer) {
  // Two paced servers.  User 1 builds contribution history at server A,
  // then users 1 and 2 contend at server B, which never served either.
  // B's Eq. (2) must grant user 1 the share its gossiped swarm-wide
  // ledger predicts, within the ±15% acceptance bound.
  Federation fed(2, /*rate_kbps=*/400.0);
  ASSERT_TRUE(wait_until([&] { return fed.converged(); }));
  ASSERT_TRUE(wait_until([&] { return fed.fully_announced(); }));

  net::PeerServer& a = *fed.servers[0];
  net::PeerServer& b = *fed.servers[1];

  // Phase 1: user 1 downloads from A alone.
  net::PeerEndpoint a_endpoint;
  a_endpoint.port = a.port();
  a_endpoint.peer_id = 100;
  net::DownloadOptions phase1;
  phase1.user_id = 1;
  const auto report1 =
      net::download_file({a_endpoint}, fed.secret, fed.info, phase1);
  ASSERT_TRUE(report1.success);
  const double contributed = static_cast<double>(a.user_bytes_sent(1));
  ASSERT_GT(contributed, 0.0);

  // The gossiped ledger must carry user 1's standing to B's node (A keeps
  // publishing on its pacing tick; gossip rounds spread it).
  ASSERT_TRUE(wait_until([&] {
    return fed.nodes[1]->swarm_contribution(1) >= contributed;
  })) << "ledger gossip never reached server B's node";

  // Phase 2: users 1 and 2 download from B concurrently.  Sample B's
  // allocation while both stream.
  net::PeerEndpoint b_endpoint;
  b_endpoint.port = b.port();
  b_endpoint.peer_id = 101;
  std::atomic<bool> done1{false}, done2{false};
  std::thread t1([&] {
    net::DownloadOptions options;
    options.user_id = 1;
    const auto r = net::download_file({b_endpoint}, fed.secret, fed.info,
                                      options);
    EXPECT_TRUE(r.success);
    done1 = true;
  });
  std::thread t2([&] {
    net::DownloadOptions options;
    options.user_id = 2;
    const auto r = net::download_file({b_endpoint}, fed.secret, fed.info,
                                      options);
    EXPECT_TRUE(r.success);
    done2 = true;
  });

  // While both users stream, Eq. (2) at B splits rate proportionally to
  // its ledger: S_1 ~ epsilon + gossiped history, S_2 ~ epsilon.  Record
  // the best concurrent sample.
  double best_user1_fraction = 0.0;
  const auto sample_deadline = std::chrono::steady_clock::now() + 30s;
  while (!done1 && !done2 &&
         std::chrono::steady_clock::now() < sample_deadline) {
    double rate1 = 0.0, rate2 = 0.0;
    std::size_t streaming = 0;
    for (const auto& share : b.allocation_snapshot()) {
      if (share.user_id == 1) rate1 = share.rate_kbps;
      if (share.user_id == 2) rate2 = share.rate_kbps;
      streaming += share.active_sessions;
    }
    if (streaming >= 2 && rate1 + rate2 > 0.0)
      best_user1_fraction =
          std::max(best_user1_fraction, rate1 / (rate1 + rate2));
    std::this_thread::sleep_for(5ms);
  }
  t1.join();
  t2.join();

  // Predicted fraction from the swarm ledger: with tens of kilobytes of
  // gossiped history against a bare epsilon, user 1's share approaches
  // 1.0; the ±15% acceptance bound therefore demands >= 0.85.
  const double epsilon = 1.0;
  const double predicted =
      (epsilon + contributed) / (2 * epsilon + contributed);
  EXPECT_GT(best_user1_fraction, predicted * 0.85)
      << "user 1's gossiped contribution did not buy Eq. (2) share at B "
      << "(observed " << best_user1_fraction << ", predicted " << predicted
      << ")";
  EXPECT_LT(best_user1_fraction, std::min(1.0, predicted * 1.15));
}

}  // namespace
}  // namespace fairshare::disco
