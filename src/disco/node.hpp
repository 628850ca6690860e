// A discovery node: ChordRing routing served over real framed TCP.
//
// Each cooperating server process runs one DiscoveryNode.  The node
// answers four things on its listening port (disco/wire.hpp frames over
// the net::Transport seam, so FaultyTransport chaos schedules apply to
// lookups exactly as they do to the serve path):
//
//   * lookup   — one iterative Chord routing step, answered from the
//     node's own ChordRing via route_step(): "done, owner is X (and its
//     successors)" or "ask Y next".  The *client* carries the query from
//     hop to hop, so routing work and hop counts are real network
//     round-trips.
//   * announce/resolve — TTL'd provider records (file id -> serving
//     endpoints).  A record is written to the owner, which pushes copies
//     to its successor list; the origin re-announces every
//     reannounce_period_ms, so records survive node failure (replicas
//     answer) and node churn (the refresh lands on the new owner), and
//     orphaned records age out by TTL.
//   * join/gossip — membership and the federated contribution ledger.  A
//     joiner learns the full view from any seed; thereafter every node
//     runs push-pull anti-entropy rounds against a random member:
//     membership is merged by union, ledger rows by CRDT max-merge
//     (alloc::FederatedLedger).  A member that fails two consecutive
//     outbound dials is declared dead and dropped from the local ring.
//   * status — one-frame introspection for `fairshare_cli disco status`.
//
// Runtime shape: one net::EventLoop thread owns the listener and every
// inbound connection (non-blocking frame pumps, fault delays parked on
// the timer wheel), plus the periodic gossip / re-announce / TTL-sweep
// timers; a small util::ThreadPool performs the blocking *outbound* dials
// (gossip rounds, replica pushes, re-announces) so the loop thread never
// blocks on a connect.
//
// The node implements net::DiscoveryHook, so a PeerServer wires to it by
// simply placing it (shared) in Config::discovery.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "alloc/federated_ledger.hpp"
#include "dht/chord.hpp"
#include "disco/wire.hpp"
#include "net/discovery.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace fairshare::disco {

struct NodeConfig {
  std::string host = "127.0.0.1";  ///< address announced to the mesh
  std::uint16_t port = 0;          ///< 0 = pick a free port
  /// Position on the identifier ring; 0 = derive from host:port once the
  /// port is known (tests pin explicit ids to control ring geometry).
  dht::RingId ring_id = 0;
  /// Ledger origin this node publishes under (its PeerServer's peer_id);
  /// 0 = use the ring id.
  std::uint64_t origin_id = 0;
  /// Existing mesh members to join through (any one reachable suffices);
  /// empty = start a fresh single-node ring.
  std::vector<wire::Member> seeds;
  std::uint32_t provider_ttl_ms = 10'000;
  std::uint32_t reannounce_period_ms = 2'000;
  std::uint32_t gossip_period_ms = 250;
  /// Blocking outbound IO bound (dials, gossip replies).
  int io_timeout_ms = 2'000;
  std::uint64_t rng_seed = 1;  ///< gossip partner selection
  /// Inbound hook mirroring PeerServer::Config::transport_wrapper: every
  /// accepted connection's Transport passes through here, so chaos tests
  /// inject faults into the lookup/gossip path.  Must be thread-safe.
  std::function<std::unique_ptr<net::Transport>(
      std::unique_ptr<net::Transport>)>
      transport_wrapper;
  /// Registry for the disco instruments (lookups/gossip/members/records),
  /// labelled node=<ring id>; null = the process-wide global.
  obs::MetricsRegistry* registry = nullptr;
};

class DiscoveryNode : public net::DiscoveryHook {
 public:
  explicit DiscoveryNode(NodeConfig config);
  ~DiscoveryNode() override;

  DiscoveryNode(const DiscoveryNode&) = delete;
  DiscoveryNode& operator=(const DiscoveryNode&) = delete;

  /// Bind, join through the configured seeds, start serving.  False when
  /// the port cannot be bound.
  bool start();
  void stop();

  std::uint16_t port() const { return port_; }
  dht::RingId ring_id() const { return self_.id; }
  /// This node as mesh members address it (valid after start()).
  wire::Member self() const { return self_; }

  /// Local mesh view (for tests; the wire path is status_request).
  wire::StatusResponse status() const;
  /// Non-expired provider records this node holds for `file_id`.
  std::vector<wire::Provider> stored_providers(std::uint64_t file_id) const;

  /// Run one gossip round now (blocking, off-loop; tests use this to make
  /// propagation deterministic instead of waiting out the period).
  void gossip_now();

  // ------------------------------------------- net::DiscoveryHook
  bool announce_file(std::uint64_t file_id,
                     const net::ServeEndpoint& endpoint) override;
  void publish_contribution(std::uint64_t user_id, double total) override;
  double swarm_contribution(std::uint64_t user_id) const override;

 private:
  struct Conn;
  struct ProviderEntry {
    wire::Provider provider;
    std::chrono::steady_clock::time_point expires;
  };

  /// Largest inbound frame (gossip payloads dominate; lookups are tiny).
  static constexpr std::size_t kMaxFrame = 1 << 20;
  /// Consecutive failed outbound dials before a member is declared dead.
  static constexpr int kDialFailureLimit = 2;

  // Request logic (loop thread): a full request frame in, the response
  // frame out (nullopt closes the connection).
  std::optional<std::vector<std::byte>> handle_frame(
      std::span<const std::byte> frame);
  std::vector<std::byte> handle_lookup(const wire::LookupRequest& msg);
  std::vector<std::byte> handle_announce(const wire::AnnounceRequest& msg);
  std::vector<std::byte> handle_resolve(const wire::ResolveRequest& msg);
  std::vector<std::byte> handle_join(const wire::JoinRequest& msg);
  std::vector<std::byte> handle_gossip(const wire::Gossip& msg);
  std::vector<std::byte> handle_status();

  /// Requires mutex_.  Returns the members newly learned (to join eagerly).
  std::size_t merge_members_locked(const std::vector<wire::Member>& members);
  wire::Gossip local_view_locked(bool reply);
  std::vector<wire::Member> successor_members_locked(dht::RingId node);
  void update_mesh_gauges_locked();

  // Outbound (pool threads; blocking with io_timeout_ms bounds).
  std::unique_ptr<net::Transport> dial(const wire::Member& target);
  std::optional<std::vector<std::byte>> request(
      const wire::Member& target, std::span<const std::byte> frame);
  void gossip_round();
  void note_dial_result(const wire::Member& target, bool ok);
  void replicate_record(const wire::AnnounceRequest& record,
                        const std::vector<wire::Member>& replicas);
  bool announce_to_owner(std::uint64_t file_id, const wire::Provider& p);
  void reannounce_all();
  bool join_mesh();
  void sweep_expired();

  // Epoll serving core (loop thread only).
  bool loop_start();
  void loop_stop();
  void accept_ready();
  void pump(const std::shared_ptr<Conn>& c);
  void close_conn(const std::shared_ptr<Conn>& c);

  NodeConfig config_;
  wire::Member self_;
  std::uint64_t origin_ = 0;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};

  net::Listener listener_;
  std::unique_ptr<net::EventLoop> loop_;
  std::thread loop_thread_;
  std::unique_ptr<util::ThreadPool> outbound_;
  std::atomic<bool> gossip_inflight_{false};

  // Mesh + record state: one mutex, touched briefly from the loop thread,
  // the outbound pool, and the public API.  The ledger synchronizes
  // itself.
  mutable std::mutex mutex_;
  std::map<dht::RingId, wire::Member> members_;
  dht::ChordRing ring_;
  std::map<std::uint64_t, std::map<std::uint64_t, ProviderEntry>> providers_;
  std::map<dht::RingId, int> dial_failures_;
  std::vector<std::pair<std::uint64_t, wire::Provider>> local_provides_;
  std::uint64_t gossip_cursor_ = 0;  // rng state for partner selection
  alloc::FederatedLedger ledger_;

  // Loop-thread-only connection table.
  std::map<int, std::shared_ptr<Conn>> conns_;

  std::atomic<std::uint64_t> lookups_served_{0};
  std::atomic<std::uint64_t> gossip_rounds_{0};

  obs::MetricsRegistry* registry_;
  obs::Counter* m_lookups_;
  obs::Counter* m_announces_;
  obs::Counter* m_resolves_;
  obs::Counter* m_gossip_rounds_;
  obs::Counter* m_members_dropped_;
  obs::Gauge* m_members_;
  obs::Gauge* m_provider_records_;
  obs::Gauge* m_ledger_entries_;
};

/// Ring key of a file id — the same placement ContentLocator simulates.
inline dht::RingId file_key(std::uint64_t file_id) {
  return dht::ring_hash_u64(file_id, /*salt=*/0x66696c65);  // "file"
}

}  // namespace fairshare::disco
