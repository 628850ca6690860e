#include "net/replay_driver.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <thread>

#include "coding/chunked.hpp"
#include "net/download_client.hpp"
#include "p2p/wire.hpp"
#include "sim/rng.hpp"

namespace fairshare::net {

double wire_overhead_factor(const coding::FileInfo& info) {
  assert(info.original_bytes > 0 && info.k > 0);
  const double framed =
      static_cast<double>(info.k) *
      static_cast<double>(p2p::wire::kCodedMessageHeaderBytes +
                          info.params.message_bytes());
  return framed / static_cast<double>(info.original_bytes);
}

namespace {

std::vector<std::byte> blob(std::size_t n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return out;
}

}  // namespace

sim::ReplayReport replay_live(const sim::WorkloadTrace& input,
                              std::uint64_t file_bytes,
                              const coding::CodingParams& params,
                              const LiveReplayConfig& config) {
  assert(input.is_sorted() && "normalize() the trace first");
  assert(file_bytes > 0);
  assert(config.rate_kbps > 0.0 && config.slot_seconds > 0.0);

  const sim::WorkloadTrace trace = input.quantized(file_bytes);
  const std::vector<std::uint64_t> ids = trace.users();

  coding::SecretKey secret{};
  secret[0] = 55;
  const std::vector<std::byte> data =
      blob(file_bytes, config.rng_seed ^ 0xB10Bull);
  coding::FileEncoder encoder(secret, /*file_id=*/42, data, params);
  p2p::MessageStore store;
  for (auto& m : encoder.generate(encoder.k())) store.store(std::move(m));
  const coding::FileInfo info = encoder.info();

  PeerServer::Config server_config;
  server_config.rate_kbps = config.rate_kbps;
  server_config.require_auth = false;
  server_config.peer_id = 1;
  server_config.rng_seed = config.rng_seed;
  server_config.max_users = std::max<std::size_t>(ids.size() + 1, 8);
  server_config.pacing_quantum_ms = config.pacing_quantum_ms;
  server_config.registry = config.registry;
  PeerServer server(server_config, std::move(store));
  for (const auto& [user_id, amount] : config.seed_contributions)
    server.seed_contribution(user_id, amount);
  const bool started = server.start();

  sim::ReplayReport report;
  report.mode = "live";
  report.rate_kbps = config.rate_kbps;
  report.slot_seconds = config.slot_seconds;
  report.wire_overhead = wire_overhead_factor(info);
  report.total_bytes = trace.total_bytes();
  report.users.resize(ids.size());

  std::map<std::uint64_t, std::size_t> index_of;
  for (std::size_t u = 0; u < ids.size(); ++u) {
    index_of[ids[u]] = u;
    report.users[u].user_id = ids[u];
    report.users[u].first_seconds = -1.0;
  }

  if (!started) {
    report.transfers_failed = trace.size();
    return report;
  }

  PeerEndpoint endpoint;
  endpoint.port = server.port();
  endpoint.peer_id = server_config.peer_id;
  const std::vector<PeerEndpoint> endpoints = {endpoint};

  // Split the trace into per-user event queues (the trace is time-sorted,
  // so each slice is too) and fill the static per-user columns up front.
  std::vector<std::vector<sim::WorkloadEvent>> queues(ids.size());
  for (const sim::WorkloadEvent& event : trace.events()) {
    const std::size_t u = index_of.at(event.user_id);
    queues[u].push_back(event);
    sim::ReplayUserStats& s = report.users[u];
    ++s.events;
    s.bytes += event.bytes;
    if (s.first_seconds < 0.0)
      s.first_seconds =
          static_cast<double>(event.arrival_slot) * config.slot_seconds;
  }

  std::mutex agg_mutex;
  std::size_t failed_total = 0;

  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_seconds = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  // One worker per user — the live TraceDemand: sleep to the next arrival,
  // then drain the backlog through one session at a time (a single open
  // session receives the user's whole Eq. (2) share, so the drain rate is
  // the one the sim models; queued events ARE the backlog).
  std::vector<std::thread> workers;
  workers.reserve(ids.size());
  for (std::size_t u = 0; u < ids.size(); ++u) {
    workers.emplace_back([&, u] {
      std::uint64_t transfer = 0;
      for (const sim::WorkloadEvent& event : queues[u]) {
        const auto arrival_tp =
            t0 +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(
                    static_cast<double>(event.arrival_slot) *
                    config.slot_seconds));
        std::this_thread::sleep_until(arrival_tp);
        const std::uint64_t files = event.bytes / file_bytes;
        for (std::uint64_t f = 0; f < files; ++f) {
          DownloadOptions options;
          options.user_id = ids[u];
          options.rng_seed = config.rng_seed + (u << 20) + ++transfer;
          options.registry = config.registry;
          const DownloadReport dl =
              download_file(endpoints, secret, info, options);
          const double now_s = elapsed_seconds();
          std::lock_guard<std::mutex> lock(agg_mutex);
          sim::ReplayUserStats& s = report.users[u];
          if (dl.success) {
            s.delivered_bytes += static_cast<double>(info.original_bytes);
            s.done_seconds = std::max(s.done_seconds, now_s);
          } else {
            ++failed_total;
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  report.seconds = elapsed_seconds();
  server.stop();

  report.slots = static_cast<std::uint64_t>(
      std::ceil(report.seconds / config.slot_seconds));
  report.transfers_failed = failed_total;
  double goodput_sum = 0.0;
  for (sim::ReplayUserStats& s : report.users) {
    if (s.first_seconds < 0.0) s.first_seconds = 0.0;
    const double span = s.done_seconds - s.first_seconds;
    s.goodput_bps = (s.delivered_bytes > 0.0 && span > 0.0)
                        ? s.delivered_bytes * 8.0 / span
                        : 0.0;
    goodput_sum += s.goodput_bps;
  }
  for (sim::ReplayUserStats& s : report.users)
    s.share = goodput_sum > 0.0 ? s.goodput_bps / goodput_sum : 0.0;

  if (config.registry) sim::publish_replay_metrics(report, *config.registry);
  return report;
}

}  // namespace fairshare::net
