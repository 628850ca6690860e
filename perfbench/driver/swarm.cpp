#include "swarm.hpp"

#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "coding/chunked.hpp"
#include "coding/encoder.hpp"
#include "crypto/sha256.hpp"
#include "obs/trace.hpp"
#include "p2p/store.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace {

// Every identity, peer or user, is RSA-512: the key size the photos
// workload specifies for its handshakes.
constexpr std::size_t kRsaBits = 512;

// Quarter-point ring ids keep the routing geometry identical across runs.
constexpr fs::dht::RingId kRingIds[] = {
    0x2000000000000000ull, 0x6000000000000000ull, 0xa000000000000000ull,
    0xe000000000000000ull};

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(fs::obs::monotonic_ns() - t0_ns) * 1e-9;
}

// Encode one file into the peers' stores: peer p gets the next
// ceil(fraction * k) messages of one encoder, so no two peers hold the same
// message.  FileInfo is taken after every peer's share exists, because its
// digest table covers only messages generated so far.
template <typename Encoder>
fs::coding::FileInfo spread(Encoder& encoder, double fraction,
                            std::vector<fs::p2p::MessageStore>& stores,
                            SetupCost& cost) {
  const auto per_peer = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(encoder.k())));
  for (auto& store : stores) {
    const std::uint64_t t0 = fs::obs::monotonic_ns();
    auto messages = encoder.generate(per_peer);
    cost.encode_seconds += seconds_since(t0);
    for (auto& m : messages) {
      cost.coded_bytes += static_cast<double>(m.payload.size());
      store.store(std::move(m));
    }
  }
  return encoder.info();
}

}  // namespace

fs::crypto::ChaCha20 chacha_for(std::uint64_t seed) {
  fs::crypto::Sha256 h;
  std::uint8_t buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<std::uint8_t>(seed >> (8 * i));
  h.update(std::span<const std::uint8_t>(buf, 8));
  const fs::crypto::Sha256Digest key = h.finish();
  const std::array<std::uint8_t, fs::crypto::ChaCha20::kNonceSize> nonce{};
  return fs::crypto::ChaCha20(std::span<const std::uint8_t, 32>(key), nonce);
}

std::vector<std::byte> seeded_bytes(std::size_t n, std::uint64_t seed) {
  fairshare::sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(out.data() + i, &v, 8);
  }
  for (; i < n; ++i) out[i] = std::byte{static_cast<std::uint8_t>(rng.next())};
  return out;
}

Swarm::Swarm(const SwarmConfig& config, std::vector<FileSpec> files,
             const fs::coding::SecretKey& secret, SetupCost& cost)
    : config_(config), secret_(secret) {
  const std::uint64_t t0 = fs::obs::monotonic_ns();
  cost = SetupCost{};

  // Identities: one RSA key per peer and per user.
  fs::crypto::ChaCha20 krng = chacha_for(config.key_seed ^ 0x6b657973ull);
  for (std::size_t p = 0; p < config.peers; ++p) {
    peer_keys_.push_back(fs::crypto::RsaKeyPair::generate(kRsaBits, krng));
    identities_[100 + p] = peer_keys_.back().pub;
  }
  for (std::size_t u = 0; u < config.users; ++u)
    users_.push_back(User{1 + u,
                          fs::crypto::RsaKeyPair::generate(kRsaBits, krng)});
  cost.keygen_seconds = seconds_since(t0);

  // Encode and store.
  std::vector<fs::p2p::MessageStore> stores(config.peers);
  for (FileSpec& spec : files) {
    File file;
    file.id = spec.id;
    if (spec.chunked) {
      fs::coding::chunked::Encoder encoder(secret, spec.id, spec.data,
                                           spec.params, {});
      file.info = spread(encoder, spec.per_peer_fraction, stores, cost);
    } else {
      fs::coding::FileEncoder encoder(secret, spec.id, spec.data, spec.params);
      file.info = spread(encoder, spec.per_peer_fraction, stores, cost);
    }
    file.data = std::move(spec.data);
    files_.push_back(std::move(file));
  }
  for (const auto& store : stores)
    store_bytes_ += static_cast<double>(store.bytes_used());

  // Discovery mesh, then the servers announcing into it.
  const std::uint64_t t_start = fs::obs::monotonic_ns();
  for (std::size_t p = 0; config.discovery && p < config.peers; ++p) {
    fs::disco::NodeConfig nc;
    nc.ring_id = kRingIds[p % 4] + p / 4;
    nc.origin_id = 100 + p;
    nc.provider_ttl_ms = 600'000;  // records must not lapse mid-run
    nc.rng_seed = config.seed + 500 + p;
    nc.registry = config.disco_registry;
    if (p > 0) nc.seeds = {nodes_[0]->self()};
    auto node = std::make_shared<fs::disco::DiscoveryNode>(std::move(nc));
    if (!node->start()) throw std::runtime_error("discovery node failed to start");
    disco_config_.seeds.push_back(node->self());
    nodes_.push_back(std::move(node));
  }
  for (std::size_t p = 0; p < config.peers; ++p) {
    fs::net::PeerServer::Config sc;
    sc.peer_id = 100 + p;
    sc.rate_kbps = config.rate_kbps;
    sc.require_auth = true;
    sc.rng_seed = config.seed + 300 + p;
    sc.registry = config.server_registry;
    if (config.discovery) sc.discovery = nodes_[p];
    auto server = std::make_unique<fs::net::PeerServer>(
        sc, std::move(stores[p]), peer_keys_[p]);
    for (const User& u : users_) server->register_user(u.id, u.key.pub);
    for (std::size_t u = 0; u < config.contributions.size(); ++u)
      server->seed_contribution(users_[u].id, config.contributions[u]);
    servers_.push_back(std::move(server));
  }
  for (auto& server : servers_)
    if (!server->start()) throw std::runtime_error("peer server failed to start");

  // Set-up ends when every file resolves to every provider.
  if (config.discovery) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (const File& f : files_) {
      while (resolve(f.id, nullptr).size() < config.peers) {
        if (std::chrono::steady_clock::now() > deadline)
          throw std::runtime_error("file never became resolvable");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }
  cost.start_seconds = seconds_since(t_start);
  cost.seconds = seconds_since(t0);
}

Swarm::~Swarm() {
  for (auto& server : servers_) server->stop();
  for (auto& node : nodes_) node->stop();
}

std::vector<fs::net::PeerEndpoint> Swarm::resolve(std::uint64_t file_id,
                                                  int* hops) const {
  auto peers = fs::disco::resolve_peers(file_id, disco_config_, {}, hops);
  for (auto& p : peers) {
    const auto it = identities_.find(p.peer_id);
    if (it != identities_.end()) p.identity = it->second;
  }
  return peers;
}

std::vector<fs::net::PeerEndpoint> Swarm::endpoints() const {
  std::vector<fs::net::PeerEndpoint> out;
  for (std::size_t p = 0; p < servers_.size(); ++p) {
    fs::net::PeerEndpoint e;
    e.port = servers_[p]->port();
    e.peer_id = 100 + p;
    e.identity = peer_keys_[p].pub;
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace perfbench
