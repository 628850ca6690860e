// The system under test, assembled through the public API: the owner's
// encoders, one MessageStore per peer, RSA identities, PeerServers and
// (for federated workloads) one DiscoveryNode per peer, all on loopback
// inside this process.  Construction is the workload's set-up; it returns
// once every file resolves to every provider.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "coding/message.hpp"
#include "crypto/rsa.hpp"
#include "disco/client.hpp"
#include "disco/node.hpp"
#include "net/download_client.hpp"
#include "net/peer_server.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace fs = fairshare;

/// One file the owner encodes and spreads over the peers.
struct FileSpec {
  std::uint64_t id = 0;
  std::vector<std::byte> data;
  fs::coding::CodingParams params;
  bool chunked = false;
  /// Distinct coded messages each peer stores, as a fraction of k
  /// (1.0 = every peer can serve the file alone; 0.5 = the paper's
  /// k' < k mode, where a download must aggregate peers).
  double per_peer_fraction = 1.0;
};

/// One user of the swarm.
struct User {
  std::uint64_t id = 0;
  fs::crypto::RsaKeyPair key;
};

struct SwarmConfig {
  std::size_t peers = 4;
  bool discovery = true;
  double rate_kbps = 0.0;  ///< per-server pacing; 0 = unpaced
  std::size_t users = 1;
  /// Seeded Eq. (2) ledger entry per user (empty = none), credited on
  /// every server through PeerServer::seed_contribution.
  std::vector<double> contributions;
  std::uint64_t seed = 1;      ///< server and discovery nonce streams
  std::uint64_t key_seed = 1;  ///< RSA identities
  fs::obs::MetricsRegistry* server_registry = nullptr;
  fs::obs::MetricsRegistry* disco_registry = nullptr;
};

/// What one set-up cost, split where the issue's metrics need it.
struct SetupCost {
  double seconds = 0.0;         ///< the whole construction
  double keygen_seconds = 0.0;  ///< RSA identities
  double encode_seconds = 0.0;  ///< inside Encoder::generate
  double start_seconds = 0.0;   ///< nodes and servers up, files resolvable
  double coded_bytes = 0.0;     ///< payload bytes generate produced
};

class Swarm {
 public:
  /// Builds and starts everything; `cost` receives the set-up split.
  /// Throws std::runtime_error when a server or node cannot start or a
  /// file never becomes resolvable.
  Swarm(const SwarmConfig& config, std::vector<FileSpec> files,
        const fs::coding::SecretKey& secret, SetupCost& cost);
  ~Swarm();
  Swarm(const Swarm&) = delete;
  Swarm& operator=(const Swarm&) = delete;

  struct File {
    std::uint64_t id = 0;
    std::vector<std::byte> data;
    fs::coding::FileInfo info;
  };
  const std::vector<File>& files() const { return files_; }
  const std::vector<User>& users() const { return users_; }
  const fs::coding::SecretKey& secret() const { return secret_; }
  const fs::crypto::RsaKeyPair& peer_key(std::size_t i) const {
    return peer_keys_[i];
  }
  std::vector<std::unique_ptr<fs::net::PeerServer>>& servers() {
    return servers_;
  }
  /// Sum of MessageStore::bytes_used over the peers.
  double store_bytes() const { return store_bytes_; }

  /// Providers of `file_id` through disco::resolve_peers, with the
  /// out-of-band identity keys attached (discovery does not carry keys).
  std::vector<fs::net::PeerEndpoint> resolve(std::uint64_t file_id,
                                             int* hops) const;
  /// Every server as a static endpoint (swarms without discovery).
  std::vector<fs::net::PeerEndpoint> endpoints() const;

 private:
  SwarmConfig config_;
  fs::coding::SecretKey secret_;
  std::vector<File> files_;
  std::vector<User> users_;
  std::vector<fs::crypto::RsaKeyPair> peer_keys_;
  std::map<std::uint64_t, fs::crypto::RsaPublicKey> identities_;
  std::vector<std::shared_ptr<fs::disco::DiscoveryNode>> nodes_;
  std::vector<std::unique_ptr<fs::net::PeerServer>> servers_;
  fs::disco::ClientConfig disco_config_;
  double store_bytes_ = 0.0;
};

/// Deterministic ChaCha20 stream for key generation and nonces.
fs::crypto::ChaCha20 chacha_for(std::uint64_t seed);

/// `n` bytes of seeded pseudo-random file contents.
std::vector<std::byte> seeded_bytes(std::size_t n, std::uint64_t seed);

}  // namespace perfbench
