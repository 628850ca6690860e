#include "net/download_client.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "coding/chunked.hpp"
#include "crypto/auth.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/sha256.hpp"
#include "net/socket.hpp"
#include "obs/trace.hpp"
#include "p2p/wire.hpp"
#include "util/thread_pool.hpp"

namespace fairshare::net {

namespace {

constexpr std::size_t kMaxServerFrame = 64 << 20;  // generous payload bound

crypto::ChaCha20 seeded_rng(std::uint64_t seed, std::uint64_t salt) {
  crypto::Sha256 h;
  std::uint8_t buf[16];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<std::uint8_t>(seed >> (8 * i));
    buf[8 + i] = static_cast<std::uint8_t>(salt >> (8 * i));
  }
  h.update(std::span<const std::uint8_t>(buf, 16));
  const crypto::Sha256Digest key = h.finish();
  const std::array<std::uint8_t, crypto::ChaCha20::kNonceSize> nonce{};
  return crypto::ChaCha20(std::span<const std::uint8_t, 32>(key), nonce);
}

/// How one connection attempt ended.
enum class Outcome {
  clean,             ///< decode done / stop sent / store served in full
  failed_retryable,  ///< connect, reset, timeout: another attempt may work
  failed_permanent,  ///< the peer failed authentication: do not go back
};

/// Registry mirrors of one PeerDownloadStats row, resolved once before the
/// session threads start so the hot receive loop only touches counters.
struct PeerInstruments {
  obs::Counter* attempts = nullptr;
  obs::Counter* retries = nullptr;
  obs::Counter* frames = nullptr;
  obs::Counter* bytes = nullptr;
  obs::Counter* corrupt = nullptr;
  obs::Counter* innovative = nullptr;
  obs::Counter* redundant = nullptr;
  obs::Counter* rejected = nullptr;
};

PeerInstruments make_instruments(obs::MetricsRegistry& registry,
                                 std::uint64_t user_id,
                                 std::uint64_t peer_id) {
  const obs::LabelList labels = {{"peer", std::to_string(peer_id)},
                                 {"user", std::to_string(user_id)}};
  PeerInstruments out;
  out.attempts =
      &registry.counter("fairshare_client_attempts_total", labels);
  out.retries = &registry.counter("fairshare_client_retries_total", labels);
  out.frames = &registry.counter("fairshare_client_frames_total", labels);
  out.bytes =
      &registry.counter("fairshare_client_bytes_received_total", labels);
  out.corrupt =
      &registry.counter("fairshare_client_frames_corrupt_total", labels);
  out.innovative = &registry.counter(
      "fairshare_client_messages_innovative_total", labels);
  out.redundant =
      &registry.counter("fairshare_client_messages_redundant_total", labels);
  out.rejected =
      &registry.counter("fairshare_client_messages_rejected_total", labels);
  return out;
}

}  // namespace

std::vector<PeerEndpoint> dedup_endpoints(std::vector<PeerEndpoint> peers) {
  std::unordered_set<PeerEndpoint, PeerEndpointHash> seen;
  seen.reserve(peers.size());
  std::erase_if(peers,
                [&](const PeerEndpoint& p) { return !seen.insert(p).second; });
  return peers;
}

DownloadReport download_file(const std::vector<PeerEndpoint>& raw_peers,
                             const coding::SecretKey& secret,
                             const coding::FileInfo& info,
                             const DownloadOptions& options) {
  // Resolved peer sets may list one server several times (owner record,
  // successor replica, static fallback); a duplicate session would fight
  // itself for the same pacing slot.
  const std::vector<PeerEndpoint> peers = dedup_endpoints(raw_peers);
  DownloadReport report;
  report.per_peer.resize(peers.size());
  obs::MetricsRegistry& registry =
      options.registry ? *options.registry : obs::MetricsRegistry::global();
  std::vector<PeerInstruments> instruments;
  instruments.reserve(peers.size());
  for (const PeerEndpoint& peer : peers)
    instruments.push_back(
        make_instruments(registry, options.user_id, peer.peer_id));
  obs::TraceSpan download_span(&registry.spans(), "client.download");
  // One decoder for either codec: a dense FileInfo decodes as one class.
  coding::FileDecoder decoder(secret, info);
  decoder.enable_metrics(registry, options.user_id);
  std::mutex decoder_mutex;
  std::atomic<bool> done{false};
  // Completion broadcast: sessions parked in a retry backoff wake the
  // moment a sibling finishes the decode, instead of sleeping it out.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  const auto mark_done = [&] {
    {
      std::lock_guard<std::mutex> lock(done_mutex);
      done = true;
    }
    done_cv.notify_all();
  };

  const auto t0 = std::chrono::steady_clock::now();

  // One connection attempt, start to finish.  `salt` is unique per attempt
  // so re-established sessions use fresh handshake nonces.
  auto attempt_session = [&](const PeerEndpoint& peer, PeerDownloadStats& ps,
                             PeerInstruments& pi,
                             std::uint64_t salt) -> Outcome {
    obs::TraceSpan span(&registry.spans(), "client.session",
                        download_span.id());
    // An error observed after the decode already finished is shutdown
    // noise (the swarm is tearing down), not a failure event; counting it
    // would break the retried/failed partition documented in the header.
    const auto fail_retryable = [&] {
      return done.load() ? Outcome::clean : Outcome::failed_retryable;
    };
    std::unique_ptr<Transport> transport;
    if (options.transport_factory) {
      transport = options.transport_factory(peer);
    } else {
      auto socket = Socket::connect_to(peer.host, peer.port);
      if (socket) transport = std::make_unique<Socket>(std::move(*socket));
    }
    if (!transport || !transport->valid()) return fail_retryable();

    // Figure 4(b) transmission "1": mutual authentication.
    if (options.user_key != nullptr) {
      crypto::ChaCha20 rng = seeded_rng(options.rng_seed, salt);
      crypto::AuthInitiator initiator(options.user_id, *options.user_key,
                                      peer.identity, rng);
      if (!send_frame(*transport, p2p::wire::encode(initiator.hello())))
        return fail_retryable();
      const auto challenge_frame = recv_frame(*transport, 1 << 16);
      if (!challenge_frame) return fail_retryable();
      const auto challenge =
          p2p::wire::decode_auth_challenge(*challenge_frame);
      if (!challenge) return fail_retryable();
      const auto response = initiator.on_challenge(*challenge);
      // The peer failed to prove its identity: retrying would hand an
      // impersonator more chances, not recover a flaky link.
      if (!response) return Outcome::failed_permanent;
      if (!send_frame(*transport, p2p::wire::encode(*response)))
        return fail_retryable();
    }

    // Transmission "2"/"3": request the file.
    p2p::wire::FileRequest request;
    request.user_id = options.user_id;
    request.file_id = info.file_id;
    request.max_rate_kbps = options.max_rate_kbps;
    if (!send_frame(*transport, p2p::wire::encode(request)))
      return fail_retryable();

    // Transmission "4": consume coded messages until done.  The bounded
    // recv timeout lets a session blocked on a quiet peer notice that a
    // sibling finished the decode, so every session reaches the stop frame
    // below instead of hanging until the peer happens to send again.
    transport->set_recv_timeout(options.recv_timeout_ms);
    while (!done.load()) {
      const auto frame = recv_frame(*transport, kMaxServerFrame);
      if (!frame) {
        if (transport->timed_out()) continue;  // re-check done and retry
        // Reset or premature EOF: retryable — a reconnect re-streams the
        // peer's store, and messages already decoded fall out as
        // non-innovative (no double-count).
        return fail_retryable();
      }
      ps.bytes_received += frame->size();
      pi.frames->add(1);
      pi.bytes->add(frame->size());
      const auto msg = p2p::wire::decode_coded_message(*frame);
      if (!msg) {
        ++ps.frames_corrupt;
        ++ps.messages_rejected;
        pi.corrupt->add(1);
        pi.rejected->add(1);
        continue;
      }
      std::lock_guard<std::mutex> lock(decoder_mutex);
      if (decoder.complete()) break;
      switch (decoder.add(*msg)) {
        case coding::AddResult::accepted:
          ++ps.messages_accepted;
          pi.innovative->add(1);
          break;
        case coding::AddResult::bad_digest:
          // The paper's on-the-fly authentication: a flipped byte anywhere
          // in the frame fails the owner's MD5 and never touches the
          // solver.
          ++ps.frames_corrupt;
          ++ps.messages_rejected;
          pi.corrupt->add(1);
          pi.rejected->add(1);
          break;
        case coding::AddResult::wrong_file:
        case coding::AddResult::bad_size:
          ++ps.messages_rejected;
          pi.rejected->add(1);
          break;
        case coding::AddResult::non_innovative:
          ++ps.messages_redundant;
          pi.redundant->add(1);
          break;
        case coding::AddResult::already_complete:
          break;
      }
      if (decoder.complete()) {
        mark_done();
        break;
      }
    }
    // Transmission "5": stop.
    p2p::wire::StopTransmission stop;
    stop.user_id = options.user_id;
    stop.file_id = info.file_id;
    (void)send_frame(*transport, p2p::wire::encode(stop));
    return Outcome::clean;
  };

  auto session = [&](std::size_t index) {
    const PeerEndpoint& peer = peers[index];
    PeerDownloadStats& ps = report.per_peer[index];
    PeerInstruments& pi = instruments[index];
    ps.peer_id = peer.peer_id;
    const int max_attempts = std::max(1, options.retry.max_attempts);
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      if (done.load()) break;
      ++ps.attempts;
      pi.attempts->add(1);
      const std::uint64_t salt =
          static_cast<std::uint64_t>(index + 1) |
          (static_cast<std::uint64_t>(attempt) << 32);
      const Outcome outcome = attempt_session(peer, ps, pi, salt);
      if (outcome == Outcome::clean) break;
      // Counter partition (see download_client.hpp): this failed attempt
      // is counted below either as retried (another attempt follows) or,
      // exactly once per peer, as the terminal failure.
      if (outcome == Outcome::failed_permanent || attempt == max_attempts ||
          done.load()) {
        ps.gave_up = true;
        break;
      }
      const int delay = options.retry.delay_ms(
          attempt, options.rng_seed ^ (0xC0FFEEull * (index + 1)));
      // Completion gate before dialing again: wait out the backoff AND
      // re-check under the same mutex mark_done() holds, so a decode that
      // finishes between the timed wait and the next connect cannot slip
      // an extra (instantly-doomed) session onto the wire.
      bool finished;
      {
        std::unique_lock<std::mutex> lock(done_mutex);
        done_cv.wait_for(lock, std::chrono::milliseconds(delay),
                         [&] { return done.load(); });
        finished = done.load();
      }
      if (finished) {  // the swarm finished while this peer backed off
        ps.gave_up = true;
        break;
      }
      ++ps.sessions_retried;
      pi.retries->add(1);
    }
  };

  // One fixed pool serves every per-peer session, and each session keeps
  // its worker across all retry attempts — re-dialing a flaky peer reuses
  // the thread it already has instead of spawning a fresh one per attempt.
  // An explicit latch (not the pool destructor, which discards queued
  // tasks) guarantees every session ran before the report is aggregated.
  {
    std::mutex pool_mutex;
    std::condition_variable pool_cv;
    std::size_t remaining = peers.size();
    util::ThreadPool pool(std::max<std::size_t>(peers.size(), 1) + 1);
    for (std::size_t i = 0; i < peers.size(); ++i)
      pool.submit([&, i] {
        session(i);
        {
          std::lock_guard<std::mutex> lock(pool_mutex);
          --remaining;
        }
        pool_cv.notify_all();
      });
    std::unique_lock<std::mutex> lock(pool_mutex);
    pool_cv.wait(lock, [&] { return remaining == 0; });
  }

  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const PeerDownloadStats& ps : report.per_peer) {
    report.messages_rejected += ps.messages_rejected;
    report.frames_corrupt += ps.frames_corrupt;
    report.sessions_retried += ps.sessions_retried;
    report.bytes_received += ps.bytes_received;
    if (ps.gave_up) ++report.sessions_failed;
  }
  if (decoder.complete()) {
    report.success = true;
    report.data = decoder.reconstruct();
    report.messages_accepted = decoder.accepted();
  }
  return report;
}

}  // namespace fairshare::net
