// Serve parity against a reference: the byte stream a client receives from
// the reactor's zero-copy scatter-gather path (try_write_frame_ext, arena
// heads, payload referenced in the MessageStore) must be exactly what the
// copying encoder produces — frame for frame, byte for byte.  Also under a
// seeded server-side FaultyTransport: the fault schedule is a pure function
// of the seed and the frame sequence, so the reactor's corrupted,
// duplicated and dropped stream must equal the same frames pushed through
// the blocking, copying send_frame under the same plan.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "coding/encoder.hpp"
#include "net/fault_transport.hpp"
#include "net/peer_server.hpp"
#include "net/socket.hpp"
#include "p2p/store.hpp"
#include "p2p/wire.hpp"
#include "sim/rng.hpp"

namespace fairshare::net {
namespace {

constexpr std::uint64_t kFileId = 42;

using Frames = std::vector<std::vector<std::byte>>;

std::vector<std::byte> blob(std::size_t n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return out;
}

/// One screened message pool served verbatim, so any byte difference from
/// the reference is the serve path's fault.
std::vector<coding::EncodedMessage> make_pool() {
  coding::SecretKey secret{};
  secret[0] = 21;
  const auto data = blob(40000, 0xFEED);
  coding::FileEncoder encoder(secret, kFileId, data,
                              coding::CodingParams{gf::FieldId::gf2_16, 256});
  return encoder.generate(encoder.k());
}

p2p::MessageStore store_of(const std::vector<coding::EncodedMessage>& pool) {
  p2p::MessageStore store;
  for (const auto& m : pool) store.store(coding::EncodedMessage(m));
  return store;
}

/// Request the file and drain the whole stream until the server closes,
/// returning the raw frames in arrival order.
Frames drain_stream(std::uint16_t port) {
  auto client = Socket::connect_to("127.0.0.1", port);
  EXPECT_TRUE(client.has_value());
  if (!client) return {};
  p2p::wire::FileRequest request;
  request.user_id = 7;
  request.file_id = kFileId;
  request.max_rate_kbps = 0.0;
  EXPECT_TRUE(send_frame(*client, p2p::wire::encode(request)));
  client->set_recv_timeout(2000);
  Frames frames;
  for (;;) {
    auto frame = recv_frame(*client, 1u << 20);
    if (!frame) break;
    frames.push_back(std::move(*frame));
  }
  return frames;
}

/// The server-side fault injector for `plan`; null = clean wire.
std::shared_ptr<FaultInjector> injector_for(
    const std::optional<FaultPlan>& plan) {
  return plan ? std::make_shared<FaultInjector>(*plan) : nullptr;
}

Frames serve_reactor(const std::vector<coding::EncodedMessage>& pool,
                     const std::optional<FaultPlan>& plan,
                     FaultStats* stats_out = nullptr) {
  PeerServer::Config config;
  config.require_auth = false;
  const auto injector = injector_for(plan);
  if (injector)
    config.transport_wrapper = [injector](std::unique_ptr<Transport> inner) {
      return injector->wrap(std::move(inner));
    };
  PeerServer server(config, store_of(pool));
  EXPECT_TRUE(server.start());
  auto frames = drain_stream(server.port());
  server.stop();
  if (stats_out && injector) *stats_out = injector->stats();
  return frames;
}

/// The reference serve path: one blocking connection that reads the
/// request through the copying recv_frame and answers with send_frame of
/// each message's full wire encoding, in store order.
Frames serve_reference(const std::vector<coding::EncodedMessage>& pool,
                       const std::optional<FaultPlan>& plan,
                       FaultStats* stats_out = nullptr) {
  auto listener = Listener::bind_local(0);
  EXPECT_TRUE(listener.has_value());
  if (!listener) return {};
  const auto injector = injector_for(plan);
  std::thread server([&] {
    auto accepted = listener->accept(/*timeout_ms=*/5000);
    if (!accepted) return;
    std::unique_ptr<Transport> transport =
        std::make_unique<Socket>(std::move(*accepted));
    if (injector) transport = injector->wrap(std::move(transport));
    const auto request_frame = recv_frame(*transport, 1u << 16);
    if (request_frame && p2p::wire::decode_file_request(*request_frame)) {
      for (const auto& msg : pool)
        if (!send_frame(*transport, p2p::wire::encode(msg))) break;
    }
    transport->close();
  });
  auto frames = drain_stream(listener->port());
  server.join();
  if (stats_out && injector) *stats_out = injector->stats();
  return frames;
}

TEST(ServeParity, ReactorFramesMatchWireEncoding) {
  // Clean wire: the reactor delivers the verbatim store, and every zero-
  // copy frame is byte-identical to the copying encoder's output.
  const auto pool = make_pool();
  const Frames reactor = serve_reactor(pool, std::nullopt);
  ASSERT_EQ(reactor.size(), pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i)
    EXPECT_EQ(reactor[i], p2p::wire::encode(pool[i])) << "frame " << i;
}

TEST(ServeParity, FaultedStreamsMatchCopyingReference) {
  // Same plan seed on both paths => same per-frame fault draws (the
  // request is frame 1; the stream follows in order) => the received
  // streams must match even though frames are mangled, duplicated, and
  // dropped in transit.  This pins the FaultyTransport materialisation of
  // try_write_frame_ext to one budget charge and one draw per frame.
  const auto pool = make_pool();
  FaultStats total;
  std::size_t frames_seen = 0;
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    FaultPlan plan;
    plan.seed = seed;
    plan.corrupt_rate = 0.20;
    plan.duplicate_rate = 0.20;
    plan.drop_rate = 0.10;
    plan.delay_rate = 0.10;
    plan.delay_ms = 1;
    FaultStats rs, ref_stats;
    const Frames reactor = serve_reactor(pool, plan, &rs);
    const Frames reference = serve_reference(pool, plan, &ref_stats);
    ASSERT_EQ(reactor.size(), reference.size()) << "seed " << seed;
    for (std::size_t i = 0; i < reactor.size(); ++i)
      ASSERT_EQ(reactor[i], reference[i]) << "seed " << seed << " frame " << i;
    // Identical schedules on identical traffic: the stats must agree too.
    EXPECT_EQ(rs.frames_dropped, ref_stats.frames_dropped) << "seed " << seed;
    EXPECT_EQ(rs.frames_corrupted, ref_stats.frames_corrupted)
        << "seed " << seed;
    EXPECT_EQ(rs.frames_duplicated, ref_stats.frames_duplicated)
        << "seed " << seed;
    EXPECT_EQ(rs.frames_delayed, ref_stats.frames_delayed) << "seed " << seed;
    total.frames_dropped += rs.frames_dropped;
    total.frames_corrupted += rs.frames_corrupted;
    total.frames_duplicated += rs.frames_duplicated;
    frames_seen += reactor.size();
  }
  // The sweep must actually exercise the faulted scatter-gather path.
  EXPECT_GT(frames_seen, 0u);
  EXPECT_GE(total.frames_corrupted, 1u);
  EXPECT_GE(total.frames_duplicated, 1u);
  EXPECT_GE(total.frames_dropped, 1u);
}

}  // namespace
}  // namespace fairshare::net
