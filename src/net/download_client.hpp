// The user's download client: opens one authenticated TCP session per
// peer, pulls coded messages from all of them in parallel, feeds a shared
// decoder, and sends stop the instant rank k is reached (Section III-B
// over real sockets).
//
// Failure model: a peer that refuses the connection, dies mid-handshake,
// or resets mid-stream is retried with exponential backoff + deterministic
// jitter (RetryPolicy) up to max_attempts, and each re-established session
// resumes feeding the *shared* decoder — replayed messages fall out as
// non-innovative, so nothing is double-counted.  The download therefore
// succeeds whenever the union of peers that keep answering jointly holds
// >= k innovative messages, no matter which individual sessions flap
// (chaos_test.cpp proves this under seeded fault schedules).
//
// Counter semantics — the failure counters PARTITION failure events:
//   * a failure event is a connection attempt that errors while the decode
//     is still incomplete (an error seen after completion is shutdown
//     noise, not a failure);
//   * every failure event is counted in exactly one of sessions_retried
//     (another attempt to that peer followed) or sessions_failed (it was
//     the peer's last word: the retry policy was exhausted, the peer
//     failed authentication permanently, or the download completed while
//     the peer was backing off);
//   * hence sessions_retried + sessions_failed == total failed attempts,
//     and sessions_failed <= peers.size() (at most one terminal failure
//     per peer).  chaos_test asserts this invariant.
//   * frames_corrupt counts frames whose *content* failed verification
//     (unparseable wire bytes or an MD5 digest mismatch); it is a subset
//     of messages_rejected, which additionally counts wrong-file and
//     wrong-size messages.  Corrupt frames never reach the solver.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coding/chunked.hpp"
#include "crypto/rsa.hpp"
#include "net/retry.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace fairshare::net {

/// One peer the client may download from.
struct PeerEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint64_t peer_id = 0;
  /// The peer's registered public key (empty modulus => expect no auth).
  crypto::RsaPublicKey identity;

  /// Two endpoints are the same peer when they dial the same address as
  /// the same identity — discovery can surface one server through several
  /// paths (owner record + successor replicas + static config), and a
  /// duplicate would open two sessions against one pacing slot.
  bool operator==(const PeerEndpoint& other) const {
    return host == other.host && port == other.port &&
           peer_id == other.peer_id && identity.n == other.identity.n &&
           identity.e == other.identity.e;
  }
};

/// Hash over the addressable fields (identity is excluded: equal
/// endpoints hash equal, and an address collision just probes).
struct PeerEndpointHash {
  std::size_t operator()(const PeerEndpoint& p) const {
    std::size_t h = std::hash<std::string>{}(p.host);
    h ^= std::hash<std::uint64_t>{}(p.peer_id) + 0x9e3779b97f4a7c15ull +
         (h << 6) + (h >> 2);
    h ^= std::hash<std::uint16_t>{}(p.port) + 0x9e3779b97f4a7c15ull +
         (h << 6) + (h >> 2);
    return h;
  }
};

/// `peers` with duplicate endpoints removed, first occurrence kept (order
/// is meaningful: callers put DHT-resolved providers before static
/// fallbacks).
std::vector<PeerEndpoint> dedup_endpoints(std::vector<PeerEndpoint> peers);

/// Per-peer slice of a DownloadReport.
struct PeerDownloadStats {
  std::uint64_t peer_id = 0;
  std::size_t attempts = 0;          ///< connections tried (successes too)
  std::size_t sessions_retried = 0;  ///< failed attempts that were retried
  bool gave_up = false;              ///< final attempt ended in an error
  std::size_t messages_accepted = 0;  ///< innovative messages via this peer
  std::size_t messages_redundant = 0;  ///< valid but non-innovative
  std::size_t messages_rejected = 0;
  std::size_t frames_corrupt = 0;
  std::uint64_t bytes_received = 0;  ///< wire payload bytes from this peer
};

struct DownloadReport {
  bool success = false;
  std::vector<std::byte> data;
  std::size_t messages_accepted = 0;
  std::size_t messages_rejected = 0;  ///< bad digest / malformed / mismatch
  std::size_t frames_corrupt = 0;     ///< unparseable or digest-rejected
  std::size_t sessions_failed = 0;    ///< peers whose last attempt failed
  std::size_t sessions_retried = 0;   ///< failed attempts that were retried
  std::uint64_t bytes_received = 0;   ///< wire payload bytes, all peers
  double seconds = 0.0;
  std::vector<PeerDownloadStats> per_peer;  ///< one entry per endpoint
};

struct DownloadOptions {
  std::uint64_t user_id = 0;
  const crypto::RsaKeyPair* user_key = nullptr;  ///< null => no auth
  double max_rate_kbps = 0.0;  ///< advertised per-peer cap (0 = none)
  std::uint64_t rng_seed = 1;  ///< handshake nonce/session-key stream
  /// How often a session blocked on a quiet peer re-checks whether a
  /// sibling already completed the decode (straggler stop latency).
  int recv_timeout_ms = 100;
  /// Per-peer reconnect policy; backoff jitter derives from rng_seed.
  RetryPolicy retry;
  /// How connections are opened; null => TCP via Socket::connect_to.
  /// Called once per attempt; return nullptr for a refused connection.
  /// Tests inject FaultyTransport wrappers here (fault_transport.hpp).
  std::function<std::unique_ptr<Transport>(const PeerEndpoint&)>
      transport_factory;
  /// Registry the download reports into (per-peer frame/byte/retry
  /// counters labelled user=<user_id>, peer=<peer_id>, decoder rank/
  /// elimination instruments, and client.download/client.session spans);
  /// null = the process-wide obs global registry.  The registry carries
  /// exactly the numbers the returned DownloadReport does — incremented
  /// at the same sites — so exporters and the report never disagree.
  obs::MetricsRegistry* registry = nullptr;
};

/// Download `info`'s file from `peers` in parallel and decode it with
/// `secret`.  Blocks until the decode completes or every session ends.
DownloadReport download_file(const std::vector<PeerEndpoint>& peers,
                             const coding::SecretKey& secret,
                             const coding::FileInfo& info,
                             const DownloadOptions& options);

}  // namespace fairshare::net
