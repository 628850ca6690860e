// Concurrent sessions on ONE PeerServer: several authenticated users are
// served simultaneously, and the pacing scheduler divides the server's
// uplink between them by Equation (2) — per-user rates proportional to the
// contribution ledgers, measured over real TCP.
//
// These are also the reactor's handshake/pacing/stop integration tests;
// tests/net/session_soak_test.cpp pushes the same assertions to 512-way
// concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <chrono>
#include <latch>
#include <mutex>
#include <thread>
#include <vector>

#include "coding/chunked.hpp"
#include "crypto/auth.hpp"
#include "crypto/chacha20.hpp"
#include "net/download_client.hpp"
#include "net/peer_server.hpp"
#include "obs/trace.hpp"
#include "p2p/wire.hpp"
#include "sim/rng.hpp"

namespace fairshare::net {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFileId = 42;
const coding::CodingParams kParams{gf::FieldId::gf2_32, 256};  // 1 KiB msgs

std::vector<std::byte> blob(std::size_t n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return out;
}

// A store with `count` coded messages of one 20 kB file (k = 20, so any 20
// of them decode; the tests below mostly count frames rather than decode).
p2p::MessageStore make_store(const coding::SecretKey& secret,
                             const std::vector<std::byte>& data,
                             std::size_t count) {
  coding::FileEncoder encoder(secret, kFileId, data, kParams);
  p2p::MessageStore store;
  for (auto& m : encoder.generate(count)) store.store(std::move(m));
  return store;
}

crypto::ChaCha20 rng_for(std::uint8_t tag) {
  std::array<std::uint8_t, 32> key{};
  key[0] = tag;
  std::array<std::uint8_t, 12> nonce{};
  return crypto::ChaCha20(key, nonce, 0);
}

// Client side of the Figure 4(b) handshake, by hand (the production path
// lives in download_client.cpp; here each session needs its own pacing
// observation window, so the frames are consumed raw).
bool handshake(Socket& socket, std::uint64_t user_id,
               const crypto::RsaKeyPair& user_key,
               const crypto::RsaPublicKey& peer_identity, std::uint64_t seed) {
  crypto::ChaCha20 rng = rng_for(static_cast<std::uint8_t>(seed));
  crypto::AuthInitiator initiator(user_id, user_key, peer_identity, rng);
  if (!send_frame(socket, p2p::wire::encode(initiator.hello()))) return false;
  const auto challenge_frame = recv_frame(socket, 1 << 16);
  if (!challenge_frame) return false;
  const auto challenge = p2p::wire::decode_auth_challenge(*challenge_frame);
  if (!challenge) return false;
  const auto response = initiator.on_challenge(*challenge);
  if (!response) return false;
  return send_frame(socket, p2p::wire::encode(*response));
}

bool send_request(Socket& socket, std::uint64_t user_id) {
  p2p::wire::FileRequest request;
  request.user_id = user_id;
  request.file_id = kFileId;
  return send_frame(socket, p2p::wire::encode(request));
}

void send_stop(Socket& socket, std::uint64_t user_id) {
  p2p::wire::StopTransmission stop;
  stop.user_id = user_id;
  stop.file_id = kFileId;
  (void)send_frame(socket, p2p::wire::encode(stop));
}

// Read coded frames until the peer closes (post-stop drain).
void drain(Socket& socket) {
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  while (Clock::now() < deadline) {
    const auto frame = recv_frame(socket, 64 << 20);
    if (!frame && !socket.timed_out()) return;  // closed
  }
}

TEST(ConcurrentSessions, RatesFollowSeededContributionLedgers) {
  const auto data = blob(20000, 7);
  coding::SecretKey secret{};
  secret[0] = 9;

  crypto::ChaCha20 krng = rng_for(11);
  const crypto::RsaKeyPair peer_key = crypto::RsaKeyPair::generate(512, krng);
  const crypto::RsaKeyPair key_a = crypto::RsaKeyPair::generate(512, krng);
  const crypto::RsaKeyPair key_b = crypto::RsaKeyPair::generate(512, krng);

  PeerServer::Config config;
  config.require_auth = true;
  config.peer_id = 1;
  config.rate_kbps = 4000.0;  // mu_i, divided by Eq. (2) each quantum
  PeerServer server(config, make_store(secret, data, 900), peer_key);
  server.register_user(1, key_a.pub);
  server.register_user(2, key_b.pub);
  // User 1 has contributed 3x what user 2 has: Eq. (2) must grant 3:1.
  server.seed_contribution(1, 3e6);
  server.seed_contribution(2, 1e6);
  ASSERT_TRUE(server.start());

  constexpr auto kWindow = std::chrono::milliseconds(1000);
  std::latch request_gate(2);
  std::atomic<std::uint64_t> bytes_a{0}, bytes_b{0};
  std::atomic<bool> early_progress_a{false}, early_progress_b{false};
  std::atomic<int> failures{0};

  auto client = [&](std::uint64_t user_id, const crypto::RsaKeyPair& key,
                    std::atomic<std::uint64_t>& bytes,
                    std::atomic<bool>& early_progress) {
    auto socket = Socket::connect_to("127.0.0.1", server.port());
    if (!socket || !handshake(*socket, user_id, key, peer_key.pub, user_id)) {
      ++failures;
      request_gate.count_down();
      return;
    }
    socket->set_recv_timeout(20);
    request_gate.arrive_and_wait();  // both sessions stream simultaneously
    if (!send_request(*socket, user_id)) {
      ++failures;
      return;
    }
    const auto start = Clock::now();
    while (Clock::now() - start < kWindow) {
      const auto frame = recv_frame(*socket, 64 << 20);
      if (!frame) {
        if (socket->timed_out()) continue;
        ++failures;  // the store is big enough that EOF here is a bug
        return;
      }
      bytes += frame->size();
      if (Clock::now() - start < std::chrono::milliseconds(500))
        early_progress = true;
    }
    send_stop(*socket, user_id);
    drain(*socket);
  };

  std::thread ta(client, 1, std::cref(key_a), std::ref(bytes_a),
                 std::ref(early_progress_a));
  std::thread tb(client, 2, std::cref(key_b), std::ref(bytes_b),
                 std::ref(early_progress_b));

  // Mid-window, both sessions must be in flight at once.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_EQ(server.active_sessions(), 2u);

  ta.join();
  tb.join();
  ASSERT_EQ(failures.load(), 0);

  // Both users made progress immediately — neither waited for the other.
  EXPECT_TRUE(early_progress_a.load());
  EXPECT_TRUE(early_progress_b.load());
  EXPECT_GE(server.peak_sessions(), 2u);

  // Measured rates within 15% of the Eq. (2) split (3:1 of 4000 kbps).
  const double window_s =
      std::chrono::duration<double>(kWindow).count();
  const double kbps_a = bytes_a.load() * 8.0 / 1000.0 / window_s;
  const double kbps_b = bytes_b.load() * 8.0 / 1000.0 / window_s;
  EXPECT_NEAR(kbps_a / 3000.0, 1.0, 0.15) << "user 1 measured " << kbps_a;
  EXPECT_NEAR(kbps_b / 1000.0, 1.0, 0.15) << "user 2 measured " << kbps_b;

  // Server-side observability agrees with the client-side measurement.
  EXPECT_GE(server.user_bytes_sent(1), bytes_a.load());
  EXPECT_GE(server.user_bytes_sent(2), bytes_b.load());
  const auto snapshot = server.allocation_snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  server.stop();
}

// seed_contribution from another thread while the pacing tick runs on the
// loop: both touch the Eq. (2) ledger, under the one pacing mutex (this
// suite runs under TSan via the net label).  The rates must follow the
// ledger as it is re-seeded: 1:1 before, 3:1 after.
TEST(ConcurrentSessions, SeedingWhileStreamingMovesRatesToTheNewLedger) {
  const auto data = blob(20000, 15);
  coding::SecretKey secret{};
  secret[0] = 16;

  crypto::ChaCha20 krng = rng_for(17);
  const crypto::RsaKeyPair peer_key = crypto::RsaKeyPair::generate(512, krng);
  const crypto::RsaKeyPair key_a = crypto::RsaKeyPair::generate(512, krng);
  const crypto::RsaKeyPair key_b = crypto::RsaKeyPair::generate(512, krng);

  constexpr double kRateKbps = 4000.0;
  PeerServer::Config config;
  config.require_auth = true;
  config.peer_id = 3;
  config.rate_kbps = kRateKbps;
  PeerServer server(config, make_store(secret, data, 2000), peer_key);
  server.register_user(1, key_a.pub);
  server.register_user(2, key_b.pub);
  // Seeds dwarf the bytes served during the test, so the ledger ratio is
  // the seeded one: 1:1 now, 3:1 once user 1 is credited another 2e9.
  server.seed_contribution(1, 1e9);
  server.seed_contribution(2, 1e9);
  ASSERT_TRUE(server.start());

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  auto client = [&](std::uint64_t user_id, const crypto::RsaKeyPair& key) {
    auto socket = Socket::connect_to("127.0.0.1", server.port());
    if (!socket || !handshake(*socket, user_id, key, peer_key.pub, user_id) ||
        !send_request(*socket, user_id)) {
      ++failures;
      return;
    }
    socket->set_recv_timeout(20);
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (!done && Clock::now() < deadline) {
      const auto frame = recv_frame(*socket, 64 << 20);
      if (!frame && !socket->timed_out()) return;  // store exhausted
    }
    send_stop(*socket, user_id);
    drain(*socket);
  };
  std::thread ta(client, 1, std::cref(key_a));
  std::thread tb(client, 2, std::cref(key_b));

  // User 1's fraction of the rate, once both users stream and hold a
  // share; negative until then.
  const auto user1_fraction = [&] {
    const auto snap = server.allocation_snapshot();
    if (snap.size() != 2) return -1.0;
    double rate[2] = {0.0, 0.0};
    for (const auto& share : snap) {
      if (share.active_sessions == 0 || share.rate_kbps <= 0.0) return -1.0;
      rate[share.user_id - 1] = share.rate_kbps;
    }
    return rate[0] / (rate[0] + rate[1]);
  };
  const auto wait_for_fraction = [&](double target) {
    double fraction = -1.0;
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (Clock::now() < deadline) {
      fraction = user1_fraction();
      if (std::abs(fraction - target) < 0.01) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return fraction;
  };

  EXPECT_NEAR(wait_for_fraction(0.5), 0.5, 0.01);
  std::atomic<bool> seeded{false};
  std::thread seeder([&] {
    for (int i = 0; i < 100; ++i) {
      server.seed_contribution(1, 2e7);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    seeded = true;
  });
  // Snapshots race the seeder and the tick meanwhile; every one must be a
  // coherent split of the whole rate between the two streaming users.
  while (!seeded) {
    double sum = 0.0;
    for (const auto& share : server.allocation_snapshot())
      sum += share.rate_kbps;
    EXPECT_NEAR(sum, kRateKbps, 1e-9 * kRateKbps);
  }
  seeder.join();
  EXPECT_NEAR(wait_for_fraction(0.75), 0.75, 0.01);

  done = true;
  ta.join();
  tb.join();
  server.stop();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrentSessions, TwoFullDownloadsShareOneServer) {
  const auto data = blob(20000, 8);
  coding::SecretKey secret{};
  secret[0] = 10;

  crypto::ChaCha20 krng = rng_for(12);
  const crypto::RsaKeyPair peer_key = crypto::RsaKeyPair::generate(512, krng);
  const crypto::RsaKeyPair key_a = crypto::RsaKeyPair::generate(512, krng);
  const crypto::RsaKeyPair key_b = crypto::RsaKeyPair::generate(512, krng);

  coding::FileEncoder encoder(secret, kFileId, data, kParams);
  p2p::MessageStore store;
  for (auto& m : encoder.generate(60)) store.store(std::move(m));
  const coding::FileInfo info = encoder.info();  // digests cover the store

  PeerServer::Config config;
  config.require_auth = true;
  config.peer_id = 2;
  config.rate_kbps = 2000.0;
  PeerServer server(config, std::move(store), peer_key);
  server.register_user(1, key_a.pub);
  server.register_user(2, key_b.pub);
  ASSERT_TRUE(server.start());

  PeerEndpoint endpoint;
  endpoint.port = server.port();
  endpoint.peer_id = 2;
  endpoint.identity = peer_key.pub;

  DownloadReport report_a, report_b;
  std::thread ta([&] {
    DownloadOptions options;
    options.user_id = 1;
    options.user_key = &key_a;
    report_a = download_file({endpoint}, secret, info, options);
  });
  std::thread tb([&] {
    DownloadOptions options;
    options.user_id = 2;
    options.user_key = &key_b;
    report_b = download_file({endpoint}, secret, info, options);
  });
  ta.join();
  tb.join();

  EXPECT_TRUE(report_a.success);
  EXPECT_TRUE(report_b.success);
  EXPECT_EQ(report_a.data, data);
  EXPECT_EQ(report_b.data, data);
  // The old server served one session at a time; now both were in flight.
  EXPECT_GE(server.peak_sessions(), 2u);
  EXPECT_EQ(server.auth_rejections(), 0u);
  server.stop();
}

TEST(ConcurrentSessions, StopFrameHaltsPacedStreamMidFile) {
  const auto data = blob(20000, 9);
  coding::SecretKey secret{};
  secret[0] = 11;

  PeerServer::Config config;
  config.require_auth = false;
  config.rate_kbps = 800.0;  // ~2 s to drain the whole store
  PeerServer server(config, make_store(secret, data, 200));
  ASSERT_TRUE(server.start());

  auto socket = Socket::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(socket.has_value());
  socket->set_recv_timeout(100);
  ASSERT_TRUE(send_request(*socket, 5));
  for (int i = 0; i < 5; ++i) {
    std::optional<std::vector<std::byte>> frame;
    do {
      frame = recv_frame(*socket, 64 << 20);
    } while (!frame && socket->timed_out());
    ASSERT_TRUE(frame.has_value()) << "stream ended before frame " << i;
  }
  send_stop(*socket, 5);
  drain(*socket);

  // The server must notice the stop promptly, well short of the file end.
  const auto deadline = Clock::now() + std::chrono::seconds(3);
  while (server.sessions_completed() == 0 && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(server.sessions_completed(), 1u);
  EXPECT_GE(server.messages_sent(), 5u);
  EXPECT_LT(server.messages_sent(), 100u);
  server.stop();
}

TEST(ConcurrentSessions, MaxSessionsBoundRejectsExtraConnections) {
  const auto data = blob(20000, 10);
  coding::SecretKey secret{};
  secret[0] = 12;

  PeerServer::Config config;
  config.require_auth = false;
  config.rate_kbps = 500.0;
  config.max_sessions = 1;
  PeerServer server(config, make_store(secret, data, 200));
  ASSERT_TRUE(server.start());

  auto first = Socket::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(first.has_value());
  first->set_recv_timeout(100);
  ASSERT_TRUE(send_request(*first, 1));
  std::optional<std::vector<std::byte>> frame;
  do {
    frame = recv_frame(*first, 64 << 20);
  } while (!frame && first->timed_out());
  ASSERT_TRUE(frame.has_value());  // session 1 is mid-stream

  auto second = Socket::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(second.has_value());  // TCP accept queue takes it...
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  while (server.sessions_rejected() == 0 && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(server.sessions_rejected(), 1u);  // ...but the server drops it

  send_stop(*first, 1);
  drain(*first);
  server.stop();
}

// A discovery hook that stalls the pacing tick: publish_contribution runs
// inside the tick on loop 0, so sleeping there deterministically freezes
// the loop.  Every tenth call sleeps `stall` and first records the
// served-bytes total the server reports, time-stamped.
class StallingHook final : public DiscoveryHook {
 public:
  struct Sample {
    std::uint64_t ns = 0;
    double total = 0.0;
  };

  explicit StallingHook(std::chrono::milliseconds stall) : stall_(stall) {}

  bool announce_file(std::uint64_t, const ServeEndpoint&) override {
    return true;
  }
  void publish_contribution(std::uint64_t, double total) override {
    if (++calls_ % 10 != 0) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      samples_.push_back({obs::monotonic_ns(), total});
    }
    std::this_thread::sleep_for(stall_);
  }
  double swarm_contribution(std::uint64_t) const override { return 0.0; }

  std::vector<Sample> samples() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_;
  }

 private:
  const std::chrono::milliseconds stall_;
  std::uint64_t calls_ = 0;  // loop 0 only
  mutable std::mutex mutex_;
  std::vector<Sample> samples_;
};

TEST(ConcurrentSessions, PacedRateHoldsWhenTheLoopStalls) {
  // One saturated session on one loop; every tenth pacing tick stalls the
  // loop for three quanta.  Grants must follow elapsed time, so the stall
  // costs no service: ten ticks span thirteen quanta, and a grant of one
  // nominal quantum per tick would deliver only 10/13 of the rate.
  constexpr int kQuantumMs = 10;
  constexpr double kRateKbps = 8000.0;
  const auto data = blob(20000, 13);
  coding::SecretKey secret{};
  secret[0] = 14;

  auto hook = std::make_shared<StallingHook>(
      std::chrono::milliseconds(3 * kQuantumMs));
  PeerServer::Config config;
  config.require_auth = false;
  config.rate_kbps = kRateKbps;
  config.num_loops = 1;
  config.pacing_quantum_ms = kQuantumMs;
  config.discovery = hook;
  // 4000 1-KiB messages: ~4 s of stream at 1 MB/s, longer than the run.
  PeerServer server(config, make_store(secret, data, 4000));
  ASSERT_TRUE(server.start());

  auto socket = Socket::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(socket.has_value());
  socket->set_recv_timeout(100);
  ASSERT_TRUE(send_request(*socket, 3));
  std::atomic<bool> drain_stop{false};
  std::thread drainer([&] {
    while (!drain_stop) {
      const auto frame = recv_frame(*socket, 64 << 20);
      if (!frame && !socket->timed_out()) return;  // closed
    }
  });

  // Stall-aligned window: from the 2nd to the 12th stall, ten full
  // ten-tick cycles, each bracketed by the totals the server reported.
  constexpr std::size_t kFirst = 1, kLast = 11;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (hook->samples().size() <= kLast && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  drain_stop = true;
  drainer.join();
  server.stop();

  const auto samples = hook->samples();
  ASSERT_GT(samples.size(), kLast) << "pacing ticks never reached the hook";
  const double seconds =
      static_cast<double>(samples[kLast].ns - samples[kFirst].ns) / 1e9;
  const double bytes = samples[kLast].total - samples[kFirst].total;
  const double ratio = bytes / (kRateKbps * 1000.0 / 8.0 * seconds);
  EXPECT_GE(ratio, 0.95) << bytes << " B in " << seconds << " s";
  EXPECT_LE(ratio, 1.05) << bytes << " B in " << seconds << " s";
}

}  // namespace
}  // namespace fairshare::net
