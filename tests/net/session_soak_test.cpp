// Soak: 512 concurrent paced sessions against ONE PeerServer.  The point
// of the reactor made measurable: the server carries hundreds of sessions
// on O(num_loops) threads, and Equation (2) still splits the uplink by
// contribution ledger at that scale.
//
// Auth is off (each handshake costs an RSA sign/verify; 512 of them would
// dominate the test without exercising anything the auth tests don't),
// so clients connect, send a FileRequest naming their user, and drain.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <thread>
#include <vector>

#include "coding/chunked.hpp"
#include "net/peer_server.hpp"
#include "p2p/wire.hpp"
#include "sim/rng.hpp"

namespace fairshare::net {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFileId = 77;
constexpr std::size_t kSessions = 512;
// Small (256 B) messages: every session's token bucket refills by much
// less than one frame per quantum, and all sessions of a user share one
// deterministic budget schedule.  Small frames keep each session's
// send cycle a few quanta long, so the measurement window spans dozens
// of cycles and the phase-locked quantization averages out.
const coding::CodingParams kParams{gf::FieldId::gf2_32, 64};

p2p::MessageStore make_store(std::size_t count) {
  sim::SplitMix64 rng(21);
  std::vector<std::byte> data(20000);
  for (auto& b : data) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  coding::SecretKey secret{};
  secret[0] = 5;
  coding::FileEncoder encoder(secret, kFileId, data, kParams);
  p2p::MessageStore store;
  for (auto& m : encoder.generate(count)) store.store(std::move(m));
  return store;
}

std::uint64_t bytes_of(const std::vector<PeerServer::AllocationShare>& snap,
                       std::uint64_t user_id) {
  for (const auto& share : snap)
    if (share.user_id == user_id) return share.bytes_sent;
  return 0;
}

std::size_t streaming_of(
    const std::vector<PeerServer::AllocationShare>& snap) {
  std::size_t n = 0;
  for (const auto& share : snap) n += share.active_sessions;
  return n;
}

TEST(SessionSoak, FiveHundredSessionsPacedByEq2OnLoopThreads) {
  PeerServer::Config config;
  config.require_auth = false;
  config.peer_id = 9;
  config.rate_kbps = 48000.0;
  config.num_loops = 2;
  config.max_sessions = 1024;  // the raised default, spelled out
  // 2048 messages/session: enough that no session can drain its stream
  // inside the ramp + window even on a slow (sanitized) box.
  PeerServer server(config, make_store(2048));
  // User 1 has contributed 3x user 2: Eq. (2) must hold 3:1 at 512-way
  // concurrency just as it does for two sessions.
  server.seed_contribution(1, 3e6);
  server.seed_contribution(2, 1e6);
  ASSERT_TRUE(server.start());

  // The headline claim: serving threads scale with loops, not sessions.
  EXPECT_EQ(server.serving_threads(), config.num_loops);

  // 512 sessions, alternating users (256 each).
  std::vector<Socket> clients;
  clients.reserve(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    auto socket = Socket::connect_to("127.0.0.1", server.port());
    ASSERT_TRUE(socket) << "connect " << i;
    p2p::wire::FileRequest request;
    request.user_id = 1 + (i % 2);
    request.file_id = kFileId;
    ASSERT_TRUE(send_frame(*socket, p2p::wire::encode(request)));
    ASSERT_TRUE(socket->set_nonblocking(true));
    clients.push_back(std::move(*socket));
  }

  // One drainer thread empties all 512 sockets so TCP flow control never
  // pushes back on the server — the inverse of the server's own thread
  // economics, and all a client owes a paced stream.
  std::atomic<bool> drain_stop{false};
  std::thread drainer([&] {
    std::vector<pollfd> pfds(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i)
      pfds[i] = {clients[i].native_handle(), POLLIN, 0};
    std::vector<char> sink(64 * 1024);
    while (!drain_stop.load()) {
      if (::poll(pfds.data(), pfds.size(), 50) <= 0) continue;
      for (auto& p : pfds) {
        if (!(p.revents & (POLLIN | POLLHUP | POLLERR))) continue;
        const ssize_t n =
            ::recv(p.fd, sink.data(), sink.size(), MSG_DONTWAIT);
        if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK))
          p.events = 0;  // dead socket; stop polling it
      }
    }
  });

  // Ramp: wait for every session to reach the streaming phase.
  const auto ramp_deadline = Clock::now() + std::chrono::seconds(15);
  while (streaming_of(server.allocation_snapshot()) < kSessions &&
         Clock::now() < ramp_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(streaming_of(server.allocation_snapshot()), kSessions)
      << "not all sessions reached streaming before the deadline";
  EXPECT_EQ(server.peak_sessions(), kSessions);
  EXPECT_EQ(server.sessions_rejected(), 0u);

  // Measure a steady-state window through the server's own coherent
  // snapshots (bytes are monotone, so two snapshots bracket the window).
  constexpr auto kWindow = std::chrono::milliseconds(1300);
  const auto before = server.allocation_snapshot();
  std::this_thread::sleep_for(kWindow);
  const auto after = server.allocation_snapshot();
  const double delta_1 = static_cast<double>(bytes_of(after, 1)) -
                         static_cast<double>(bytes_of(before, 1));
  const double delta_2 = static_cast<double>(bytes_of(after, 2)) -
                         static_cast<double>(bytes_of(before, 2));
  ASSERT_GT(delta_2, 0.0);

  // Eq. (2): rates proportional to ledgers, 3:1, within the same +-15%
  // the two-session test allows.
  EXPECT_NEAR(delta_1 / delta_2, 3.0, 0.45);

  // The uplink is actually used: at least half the nominal rate made it
  // onto the wire during the window (loose: CI boxes stall).
  const double window_s =
      std::chrono::duration<double>(kWindow).count();
  const double nominal_bytes = config.rate_kbps * 1000.0 / 8.0 * window_s;
  EXPECT_GT(delta_1 + delta_2, nominal_bytes * 0.5);

  // Still O(loops) after carrying 512 streams.
  EXPECT_EQ(server.serving_threads(), config.num_loops);

  drain_stop = true;
  drainer.join();
  server.stop();
  EXPECT_GT(server.messages_sent(), 0u);
}

}  // namespace
}  // namespace fairshare::net
