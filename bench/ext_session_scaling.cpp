// Extension: session scaling on the event-driven serving core.
//
// One PeerServer serves 32, 128, then 512 concurrent
// paced sessions; the server-side byte counters measure delivered
// throughput over a steady-state window at each width.  The reactor's
// claim is that sessions are state machines multiplexed onto O(num_loops)
// threads, so the paced rate must stay FLAT as the session count grows —
// where a thread-per-session server would start paying scheduler and
// memory costs per connection.
//
// Optional argv[1]: write the measured points as JSON (uploaded by CI
// next to BENCH_kernels.json; runners are too noisy to gate merges on,
// so the shape checks print rather than fail the build).
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "coding/chunked.hpp"
#include "common.hpp"
#include "net/peer_server.hpp"
#include "p2p/wire.hpp"
#include "sim/rng.hpp"

namespace {

using namespace fairshare;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFileId = 4;
constexpr double kRateKbps = 48000.0;

// 256 B messages so even 1/512th of the rate refills a session's bucket
// every few quanta (see tests/net/session_soak_test.cpp on cycle length).
p2p::MessageStore make_store() {
  sim::SplitMix64 rng(17);
  std::vector<std::byte> data(20000);
  for (auto& b : data) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  coding::SecretKey secret{};
  secret[0] = 3;
  coding::FileEncoder encoder(secret, kFileId, data,
                              {gf::FieldId::gf2_32, 64});
  p2p::MessageStore store;
  for (auto& m : encoder.generate(4096)) store.store(std::move(m));
  return store;
}

std::size_t streaming_sessions(const net::PeerServer& server) {
  std::size_t n = 0;
  for (const auto& share : server.allocation_snapshot())
    n += share.active_sessions;
  return n;
}

/// Serve `sessions` concurrent downloads for a fixed window; returns the
/// steady-state delivered rate in kbps (0 on setup failure).
double measure(std::size_t sessions, std::size_t* threads_out) {
  net::PeerServer::Config config;
  config.require_auth = false;
  config.peer_id = 2;
  config.rate_kbps = kRateKbps;
  config.num_loops = 2;
  net::PeerServer server(config, make_store());
  if (!server.start()) return 0.0;
  *threads_out = server.serving_threads();

  std::vector<net::Socket> clients;
  clients.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    auto socket = net::Socket::connect_to("127.0.0.1", server.port());
    if (!socket) return 0.0;
    p2p::wire::FileRequest request;
    request.user_id = 1;
    request.file_id = kFileId;
    if (!net::send_frame(*socket, p2p::wire::encode(request))) return 0.0;
    socket->set_nonblocking(true);
    clients.push_back(std::move(*socket));
  }

  std::atomic<bool> drain_stop{false};
  std::thread drainer([&] {
    std::vector<pollfd> pfds(sessions);
    for (std::size_t i = 0; i < sessions; ++i)
      pfds[i] = {clients[i].native_handle(), POLLIN, 0};
    std::vector<char> sink(64 * 1024);
    while (!drain_stop.load()) {
      if (::poll(pfds.data(), pfds.size(), 50) <= 0) continue;
      for (auto& p : pfds) {
        if (!(p.revents & (POLLIN | POLLHUP | POLLERR))) continue;
        const ssize_t n =
            ::recv(p.fd, sink.data(), sink.size(), MSG_DONTWAIT);
        if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK))
          p.events = 0;
      }
    }
  });

  double kbps = 0.0;
  const auto ramp_deadline = Clock::now() + std::chrono::seconds(10);
  while (streaming_sessions(server) < sessions &&
         Clock::now() < ramp_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  if (streaming_sessions(server) == sessions) {
    constexpr auto kWindow = std::chrono::milliseconds(1000);
    const std::uint64_t before = server.user_bytes_sent(1);
    const auto t0 = Clock::now();
    std::this_thread::sleep_for(kWindow);
    const std::uint64_t after = server.user_bytes_sent(1);
    const double seconds = std::chrono::duration<double>(
        Clock::now() - t0).count();
    kbps = static_cast<double>(after - before) * 8.0 / 1000.0 / seconds;
  }
  drain_stop = true;
  drainer.join();
  server.stop();
  return kbps;
}

}  // namespace

int main(int argc, char** argv) {
  bench::header("Extension: session scaling",
                "paced throughput vs concurrent sessions on the reactor");

  const std::vector<std::size_t> widths = {32, 128, 512};
  std::vector<double> rates;
  std::size_t threads = 0;
  std::printf("sessions,kbps,ratio_vs_32,serving_threads\n");
  for (std::size_t n : widths) {
    const double kbps = measure(n, &threads);
    rates.push_back(kbps);
    std::printf("%zu,%.0f,%.3f,%zu\n", n, kbps,
                rates.front() > 0 ? kbps / rates.front() : 0.0, threads);
  }

  double lo = rates[0], hi = rates[0], sum = 0.0;
  for (double r : rates) {
    lo = std::min(lo, r);
    hi = std::max(hi, r);
    sum += r;
  }
  const double mean = sum / static_cast<double>(rates.size());
  const double spread = mean > 0 ? (hi - lo) / mean : 1.0;
  std::printf("spread=%.3f\n", spread);

  if (argc > 1) {
    if (FILE* out = std::fopen(argv[1], "w")) {
      std::fprintf(out,
                   "{\n  \"bench\": \"ext_session_scaling\",\n"
                   "  \"rate_kbps\": %.0f,\n"
                   "  \"serving_threads\": %zu,\n"
                   "  \"spread\": %.4f,\n  \"points\": [\n",
                   kRateKbps, threads, spread);
      for (std::size_t i = 0; i < widths.size(); ++i)
        std::fprintf(out, "    {\"sessions\": %zu, \"kbps\": %.1f}%s\n",
                     widths[i], rates[i],
                     i + 1 < widths.size() ? "," : "");
      std::fprintf(out, "  ]\n}\n");
      std::fclose(out);
      std::printf("wrote %s\n", argv[1]);
    }
  }

  bench::shape_check(threads == 2,
                     "serving threads stayed O(loops) — 2 for 512 sessions");
  bench::shape_check(lo > 0.0, "every width sustained a nonzero paced rate");
  bench::shape_check(spread < 0.10,
                     "throughput flat within 10% from 32 to 512 sessions");
  bench::shape_check(rates.back() < 1.25 * kRateKbps,
                     "512 sessions never overshoot the configured uplink");
  return 0;
}
