// Extension: the headline aggregation effect over REAL TCP sockets.
//
// Peers run as localhost servers paced to a consumer uplink; the client
// downloads with 1, 2, 4, then 8 parallel sessions and measures the
// wall-clock rate.  The paper's claim — download rate approaches the SUM
// of the contributing uplinks, not the owner's single uplink — shows up
// as near-linear scaling.
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "coding/chunked.hpp"
#include "common.hpp"
#include "net/download_client.hpp"
#include "net/peer_server.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace {

using namespace fairshare;

}  // namespace

int main() {
  bench::header("Extension: socket aggregation",
                "parallel-session download rate over real TCP vs peer count");

  sim::SplitMix64 rng(3);
  std::vector<std::byte> file(192 * 1024);
  for (auto& b : file) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  coding::SecretKey secret{};
  secret[0] = 8;
  const coding::CodingParams params{gf::FieldId::gf2_32, 1u << 11};  // 8 KiB
  coding::FileEncoder encoder(secret, 1, file, params);

  const double uplink_kbps = 768.0;
  const std::size_t max_peers = 8;
  // Every server and the client report into one registry, as a swarm on a
  // shared process would; series stay apart via their peer= labels.
  obs::MetricsRegistry registry;
  std::vector<std::unique_ptr<net::PeerServer>> servers;
  std::vector<net::PeerEndpoint> endpoints;
  for (std::size_t p = 0; p < max_peers; ++p) {
    p2p::MessageStore store;
    for (auto& m : encoder.generate(encoder.k())) store.store(std::move(m));
    net::PeerServer::Config config;
    config.peer_id = p;
    config.rate_kbps = uplink_kbps;
    config.require_auth = false;
    config.registry = &registry;
    auto server = std::make_unique<net::PeerServer>(config, std::move(store));
    if (!server->start()) return 1;
    net::PeerEndpoint ep;
    ep.port = server->port();
    ep.peer_id = p;
    endpoints.push_back(ep);
    servers.push_back(std::move(server));
  }

  std::printf("peers,seconds,kbps,scaling_vs_single\n");
  double single_kbps = 0.0, best_kbps = 0.0;
  std::uint64_t report_bytes_received = 0;
  bool all_exact = true;
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    const std::vector<net::PeerEndpoint> subset(endpoints.begin(),
                                                endpoints.begin() + n);
    net::DownloadOptions options;
    options.registry = &registry;
    const net::DownloadReport report =
        net::download_file(subset, secret, encoder.info(), options);
    report_bytes_received += report.bytes_received;
    if (!report.success || report.data != file) {
      all_exact = false;
      continue;
    }
    const double kbps = file.size() * 8.0 / 1000.0 / report.seconds;
    if (n == 1) single_kbps = kbps;
    best_kbps = std::max(best_kbps, kbps);
    std::printf("%zu,%.2f,%.0f,%.2f\n", n, report.seconds, kbps,
                kbps / single_kbps);
  }
  // Observability now flows from one registry snapshot instead of polling
  // each server's accessors: the same coherent instant covers every peer.
  const obs::RegistrySnapshot snap = registry.snapshot();
  std::printf("server,completed,messages,peak_sessions,user0_bytes\n");
  std::size_t total_completed = 0;
  for (std::size_t p = 0; p < servers.size(); ++p) {
    std::uint64_t completed = 0, messages = 0, user0_bytes = 0;
    double peak = 0.0;
    const std::string peer = std::to_string(p);
    for (const auto& c : snap.counters) {
      const bool mine = !c.labels.empty() && c.labels[0].second == peer;
      if (!mine) continue;
      if (c.name == "fairshare_server_sessions_completed_total")
        completed = c.value;
      else if (c.name == "fairshare_server_messages_sent_total")
        messages = c.value;
      else if (c.name == "fairshare_server_user_bytes_total" &&
               c.labels.size() > 1 && c.labels[1].second == "0")
        user0_bytes = c.value;
    }
    for (const auto& g : snap.gauges)
      if (g.name == "fairshare_server_peak_sessions" && !g.labels.empty() &&
          g.labels[0].second == peer)
        peak = g.value;
    total_completed += completed;
    std::printf("%zu,%llu,%llu,%.0f,%llu\n", p,
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(messages), peak,
                static_cast<unsigned long long>(user0_bytes));
  }
  // Per-user rate/byte table straight off the JSON exporter: the dump is
  // line-oriented, so each matching line IS one finished table row.
  std::printf("registry per-user series (JSON exporter lines):\n");
  std::istringstream json(obs::to_json(snap));
  for (std::string line; std::getline(json, line);)
    if (line.find("fairshare_server_user_bytes_total") != std::string::npos ||
        line.find("fairshare_server_user_rate_kbps") != std::string::npos)
      std::printf("  %s\n", line.c_str());
  for (const auto& share : servers[0]->allocation_snapshot())
    std::printf("alloc_snapshot: user=%llu rate_kbps=%.0f bytes=%llu "
                "sessions=%zu\n",
                static_cast<unsigned long long>(share.user_id),
                share.rate_kbps,
                static_cast<unsigned long long>(share.bytes_sent),
                share.active_sessions);
  for (auto& s : servers) s->stop();

  bench::shape_check(all_exact, "every configuration reconstructed exactly");
  bench::shape_check(
      registry.counter_total("fairshare_client_bytes_received_total") ==
          report_bytes_received,
      "registry byte counters equal the DownloadReports exactly");
  bench::shape_check(total_completed > 0,
                     "servers closed sessions cleanly (stop frames observed)");
  bench::shape_check(single_kbps < 1.25 * uplink_kbps,
                     "one session is pinned near the single uplink rate");
  bench::shape_check(best_kbps > 4.0 * single_kbps,
                     "eight parallel sessions beat one uplink by >4x — "
                     "aggregation fills the download pipe");
  return 0;
}
