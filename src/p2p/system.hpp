// The full peer-to-peer system of Section III: initialization
// (dissemination of coded messages while links are idle), authenticated
// download sessions, per-slot bandwidth allocation, on-the-fly message
// authentication, and the stop message when decoding completes.
//
// This is a message-level discrete-time simulation: real coded bytes move
// between in-process peers under per-slot capacity budgets, users run real
// decoders, and the handshake of Figure 4(b) runs real RSA.  Examples and
// integration tests drive this class; the rate-level fairness experiments
// of Figures 5-8 use the lighter sim::Simulator instead.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "alloc/policy.hpp"
#include "coding/chunked.hpp"
#include "coding/chunker.hpp"
#include "crypto/auth.hpp"
#include "dht/chord.hpp"
#include "p2p/store.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace fairshare::p2p {

using PeerId = std::size_t;

/// Whether download sessions run the RSA challenge-response handshake.
enum class AuthMode {
  disabled,  ///< skip handshakes (large fairness sims)
  full,      ///< mutual RSA challenge-response + HMAC session tags
};

struct PeerParams {
  double upload_kbps = 256.0;
  /// How the peer divides upload among requesting users.  Null selects the
  /// paper's Equation (2) policy.
  std::shared_ptr<alloc::AllocationPolicy> policy;
  /// k' storage mode of Section III-D (max stored messages per file).
  std::size_t store_limit_per_file = SIZE_MAX;
  /// Adversary: serves corrupted payloads (callers expect the decoder's
  /// MD5 authentication to reject every one of them).
  bool tampers = false;
  /// Adversary: presents a key other than its registered identity during
  /// the handshake (IP-spoofing / man-in-the-middle stand-in); sessions to
  /// it must fail authentication and serve nothing.
  bool impersonates = false;
  /// Probability that a fully transferred message from this peer is lost
  /// in transit (link-level loss).  The bandwidth is still spent; the
  /// session retransmits the same message on its next budget.
  double loss_rate = 0.0;
  /// Chaos: refuse download sessions outright — the simulator mirror of
  /// net::FaultPlan::refuse_connection.  Store contents, dissemination,
  /// and DHT announcements are unaffected; only session opening fails.
  bool refuses_sessions = false;
  /// Chaos: the connection dies after serving this many messages — the
  /// mirror of net::FaultPlan::reset_after_frames.  The request re-opens
  /// the session after SystemConfig::handshake_slots (the simulator's
  /// retry backoff), re-streaming the store from the start exactly like
  /// the socket client's reconnect, up to
  /// SystemConfig::session_max_attempts connections.
  std::size_t reset_after_messages = SIZE_MAX;
  /// Adversary/chaos: fraction of served payloads corrupted (`tampers` is
  /// the rate-1.0 special case) — the mirror of
  /// net::FaultPlan::corrupt_rate.  The decoder's MD5 authentication must
  /// reject every corrupted message.
  double tamper_rate = 0.0;
};

struct SystemConfig {
  AuthMode auth = AuthMode::full;
  std::size_t rsa_bits = 512;  ///< demo-grade keys; see crypto/rsa.hpp
  std::uint64_t seed = 1;
  /// Handshake latency charged before a session serves data (slots).
  std::uint64_t handshake_slots = 2;
  /// Connections a request may open to one peer (first try included)
  /// before the session fails for good — the simulator mirror of
  /// net::RetryPolicy::max_attempts.
  std::size_t session_max_attempts = 4;
};

/// Outcome counters for one download request.
struct RequestStats {
  std::size_t messages_accepted = 0;
  std::size_t messages_non_innovative = 0;
  std::size_t messages_bad_digest = 0;
  std::size_t messages_lost = 0;  ///< transfers dropped by link loss
  std::size_t auth_failures = 0;  ///< sessions that failed the handshake
  std::size_t sessions_refused = 0;  ///< peers that refused to serve at all
  std::size_t sessions_reset = 0;    ///< mid-stream resets (incl. re-opens)
  std::size_t locate_hops = 0;    ///< DHT routing hops spent finding peers
  std::size_t peers_contacted = 0;  ///< sessions opened (located + owner)
  std::uint64_t started_slot = 0;
  std::uint64_t completed_slot = 0;  ///< valid when complete
};

class System {
 public:
  System(std::vector<PeerParams> peers, SystemConfig config = {});
  ~System();

  std::size_t n() const { return peers_.size(); }
  std::uint64_t now() const { return slot_; }

  // ----------------------------------------------------- initialization
  /// Owner starts sharing `data` under `file_id`.  Coded messages (k per
  /// other peer) are queued for dissemination, which proceeds in the
  /// background using the owner's upload capacity left over after serving
  /// downloads ("executed when some upload bandwidth is available").
  void share_file(PeerId owner, std::uint64_t file_id,
                  std::span<const std::byte> data,
                  const coding::CodingParams& params);

  /// Fraction of queued dissemination messages fully uploaded, in [0, 1].
  double dissemination_progress(std::uint64_t file_id) const;

  // ------------------------------------------------------------- access
  /// User `user` requests `file_id` from a remote location with download
  /// capacity `download_kbps`.  Opens (authenticated) sessions to every
  /// peer.  One active request per user at a time.  Returns a handle.
  std::size_t request_file(PeerId user, std::uint64_t file_id,
                           double download_kbps);

  bool complete(std::size_t request) const;
  /// Decoded file bytes.  Precondition: complete(request).
  std::vector<std::byte> data(std::size_t request) const;
  const RequestStats& stats(std::size_t request) const;

  // -------------------------------------------------------------- churn
  /// Take a peer offline/online.  Offline peers serve nothing, receive no
  /// dissemination, and their DHT announcements are suspended; active
  /// downloads fail over to the remaining holders (geographic robustness
  /// in action).  The peer's store survives, so coming back online
  /// restores service without re-dissemination.
  void set_online(PeerId peer, bool online);
  bool online(PeerId peer) const { return online_[peer]; }

  // -------------------------------------------------------------- clock
  void step();
  void run(std::uint64_t slots);
  /// Steps until the request completes or `max_slots` elapse; returns
  /// whether it completed.
  bool run_until_complete(std::size_t request, std::uint64_t max_slots);

  // ------------------------------------------------------------ metrics
  /// Download rate (kbps) delivered to each user per slot.
  const sim::Trace& download_trace(PeerId user) const {
    return download_trace_[user];
  }
  /// Stored bytes at a peer (the disk-for-bandwidth trade).
  std::size_t store_bytes(PeerId peer) const;
  /// Messages a peer holds for a file (dissemination observability).
  std::size_t stored_messages(PeerId peer, std::uint64_t file_id) const;

 private:
  struct PeerState;
  struct FileRecord;
  struct Session;
  struct Request;

  FileRecord* find_file(std::uint64_t file_id);
  const FileRecord* find_file(std::uint64_t file_id) const;
  void serve_sessions(std::vector<double>& used_upload);
  void disseminate(const std::vector<double>& used_upload);
  void deliver(Request& req, PeerId peer, coding::EncodedMessage message);
  bool open_sessions(Request& req);

  SystemConfig config_;
  std::uint64_t slot_ = 0;
  std::vector<PeerParams> params_;
  std::vector<std::unique_ptr<PeerState>> peers_;
  std::vector<std::unique_ptr<FileRecord>> files_;
  std::vector<std::unique_ptr<Request>> requests_;
  std::vector<sim::Trace> download_trace_;
  std::vector<double> slot_delivered_kb_;  // scratch, per user
  sim::SplitMix64 loss_rng_{0};
  std::vector<bool> online_;
  /// Content location: peers announce stored files on a Chord ring; a
  /// request routes a lookup to learn whom to contact (Section II's
  /// "out-of-band mechanism", made concrete).
  dht::ContentLocator locator_{dht::ChordRing{}};
  std::vector<dht::RingId> ring_id_;  ///< peer index -> ring id
};

}  // namespace fairshare::p2p
