// Federated-swarm serving capacity: sessions per core at flat throughput
// as the federation grows from 1 to 2 to 4 server processes' worth of
// state (each "process" is one DiscoveryNode + one PeerServer pair over
// real loopback TCP, exactly the shape tests/disco/federation_test.cpp
// drives).
//
// Every iteration resolves the file's providers purely through DHT
// lookups (no static peer list) and then runs a fixed pool of concurrent
// download sessions spread across the resolved endpoints.  The headline
// number is bytes_per_second of delivered payload; the committed counters
// are the federation size, the session pool, sessions_per_core, and the
// routing hop count of the resolve — a federation that scales keeps
// bytes_per_second roughly flat per server while hops stay O(log n).
//
// The bench_baseline CMake target runs this with --benchmark_out and
// merges the condensed entries into BENCH_kernels.json under
// runs.federation (tools/bench_to_json.py --merge).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "coding/chunked.hpp"
#include "disco/client.hpp"
#include "disco/node.hpp"
#include "net/download_client.hpp"
#include "net/peer_server.hpp"
#include "sim/rng.hpp"

namespace {

using namespace fairshare;

constexpr std::uint64_t kFileId = 42;
constexpr std::size_t kFileBytes = 60'000;
constexpr std::size_t kSessions = 8;
// Quarter-point ring ids keep the routing geometry identical across runs.
constexpr dht::RingId kIds[] = {
    0x2000000000000000ull, 0x6000000000000000ull, 0xa000000000000000ull,
    0xe000000000000000ull};

std::vector<std::byte> blob(std::size_t n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return out;
}

// One federation: n discovery nodes, n unpaced servers announcing into
// them, all fully joined and announced before the constructor returns.
struct Federation {
  std::vector<std::shared_ptr<disco::DiscoveryNode>> nodes;
  std::vector<std::unique_ptr<net::PeerServer>> servers;
  coding::FileInfo info;
  coding::SecretKey secret{};

  explicit Federation(std::size_t n) {
    secret[0] = 99;
    const std::vector<std::byte> data = blob(kFileBytes, 4321);
    const coding::CodingParams params{gf::FieldId::gf2_32, 256};
    coding::FileEncoder encoder(secret, kFileId, data, params);

    for (std::size_t i = 0; i < n; ++i) {
      disco::NodeConfig node_config;
      node_config.ring_id = kIds[i];
      node_config.origin_id = 100 + i;
      node_config.gossip_period_ms = 100;
      node_config.reannounce_period_ms = 500;
      node_config.provider_ttl_ms = 600'000;
      node_config.rng_seed = 500 + i;
      if (i > 0) node_config.seeds = {nodes[0]->self()};
      auto node =
          std::make_shared<disco::DiscoveryNode>(std::move(node_config));
      node->start();
      nodes.push_back(node);

      p2p::MessageStore store;
      for (auto& m : encoder.generate(encoder.k())) store.store(std::move(m));
      net::PeerServer::Config config;
      config.peer_id = 100 + i;
      config.require_auth = false;
      config.rng_seed = 300 + i;
      config.discovery = node;
      auto server =
          std::make_unique<net::PeerServer>(config, std::move(store));
      server->start();
      servers.push_back(std::move(server));
    }
    // message_digests covers every message generated so far; take the
    // client metadata only after all stores are stocked.
    info = encoder.info();
    wait_announced();
  }

  ~Federation() {
    for (auto& server : servers) server->stop();
    for (auto& node : nodes) node->stop();
  }

  disco::ClientConfig disco_config() const {
    disco::ClientConfig config;
    for (const auto& node : nodes) config.seeds.push_back(node->self());
    return config;
  }

  void wait_announced() const {
    const disco::Client client(disco_config());
    while (client.resolve(kFileId).size() < servers.size())
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
};

void BM_FederatedDownload(benchmark::State& state) {
  const auto server_count = static_cast<std::size_t>(state.range(0));
  const Federation fed(server_count);

  int hops = 0;
  double delivered = 0.0;
  std::size_t failed = 0;
  for (auto _ : state) {
    const auto peers =
        disco::resolve_peers(kFileId, fed.disco_config(), {}, &hops);
    if (peers.size() != server_count) {
      state.SkipWithError("DHT resolve did not return every server");
      return;
    }
    std::vector<std::thread> sessions;
    std::vector<std::uint8_t> ok(kSessions, 0);
    for (std::size_t s = 0; s < kSessions; ++s) {
      sessions.emplace_back([&, s] {
        // Each session downloads from one resolved endpoint, round-robin
        // across the federation, as a distinct user.
        net::DownloadOptions options;
        options.user_id = 1 + s;
        const std::vector<net::PeerEndpoint> mine{peers[s % peers.size()]};
        const auto report =
            net::download_file(mine, fed.secret, fed.info, options);
        ok[s] = report.success ? 1 : 0;
      });
    }
    for (auto& session : sessions) session.join();
    for (std::size_t s = 0; s < kSessions; ++s) {
      if (ok[s])
        delivered += static_cast<double>(kFileBytes);
      else
        ++failed;
    }
  }

  const double cores =
      static_cast<double>(std::thread::hardware_concurrency());
  state.counters["servers"] = static_cast<double>(server_count);
  state.counters["sessions"] = static_cast<double>(kSessions);
  state.counters["sessions_per_core"] =
      static_cast<double>(kSessions) / (cores > 0.0 ? cores : 1.0);
  state.counters["resolve_hops"] = static_cast<double>(hops);
  state.counters["downloads_failed"] = static_cast<double>(failed);
  state.SetBytesProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_FederatedDownload)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  // Same self-report as microbench_kernels: record this binary's own
  // optimisation state so tools/bench_to_json.py can refuse to bless a
  // debug-build baseline.
#ifdef __OPTIMIZE__
  benchmark::AddCustomContext("fairshare_build_type", "release");
#else
  benchmark::AddCustomContext("fairshare_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
