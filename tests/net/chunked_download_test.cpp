// End-to-end chunked downloads: a chunked FileInfo selects the
// overlapping-class decoder inside download_file, and the file arrives
// intact over the reactor's zero-copy scatter-gather serve path, from a
// verbatim store and from an encode-on-demand MessageStore source.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "coding/chunked.hpp"
#include "net/download_client.hpp"
#include "net/peer_server.hpp"
#include "obs/metrics.hpp"
#include "p2p/store.hpp"
#include "sim/rng.hpp"

namespace fairshare::net {
namespace {

constexpr std::uint64_t kFileId = 42;

std::vector<std::byte> blob(std::size_t n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return out;
}

coding::ChunkedSchedule small_classes() {
  coding::ChunkedSchedule s;
  s.class_size = 16;
  s.overlap = 4;
  s.seed = 11;
  return s;
}

struct Fixture {
  coding::SecretKey secret{};
  std::vector<std::byte> data;
  coding::CodingParams params{gf::FieldId::gf2_32, 256};  // 1 KiB chunks
  std::unique_ptr<coding::chunked::Encoder> encoder;

  Fixture() {
    secret[0] = 33;
    data = blob(100000, 0xBEEF);  // k = 98, several classes
    encoder = std::make_unique<coding::chunked::Encoder>(
        secret, kFileId, data, params, small_classes());
  }
};

DownloadReport download_from(PeerServer& server,
                             const coding::SecretKey& secret,
                             const coding::FileInfo& info,
                             obs::MetricsRegistry* registry) {
  PeerEndpoint ep;
  ep.port = server.port();
  DownloadOptions options;
  options.user_id = 9;
  options.registry = registry;
  return download_file({ep}, secret, info, options);
}

TEST(ChunkedDownload, VerbatimStoreServesChunkedFile) {
  Fixture fx;
  ASSERT_EQ(fx.encoder->info().codec, coding::CodecKind::chunked);
  const auto pool = fx.encoder->generate(fx.encoder->k());
  const coding::FileInfo info = fx.encoder->info();
  const std::size_t classes = fx.encoder->class_map().classes();
  ASSERT_GT(classes, 2u);

  p2p::MessageStore store;
  for (const auto& m : pool) store.store(coding::EncodedMessage(m));
  PeerServer::Config config;
  config.require_auth = false;
  PeerServer server(config, std::move(store));
  ASSERT_TRUE(server.start());

  obs::MetricsRegistry registry;
  const DownloadReport report =
      download_from(server, fx.secret, info, &registry);
  server.stop();

  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.data, fx.data);
  // The quota-scheduled in-order stream decodes with zero overhead.
  EXPECT_EQ(report.messages_accepted, fx.encoder->k());

  // The chunked decoder reported through the per-download registry: the
  // cascade completed every class, and the rank series carries the
  // codec="chunked" label.
  EXPECT_EQ(registry.counter_total("fairshare_chunked_classes_complete_total"),
            classes);
  bool saw_chunked_rank = false;
  for (const auto& g : registry.snapshot().gauges) {
    if (g.name != "fairshare_decoder_rank") continue;
    for (const auto& [key, value] : g.labels)
      if (key == "codec") saw_chunked_rank = value == "chunked";
    EXPECT_GE(g.value, static_cast<double>(fx.encoder->k()));
  }
  EXPECT_TRUE(saw_chunked_rank);
}

TEST(ChunkedDownload, EncodeOnDemandSourceServesChunkedSymbols) {
  // The owner-side serving path: no verbatim store, the MessageStore pulls
  // coded symbols straight out of the encoder as sessions consume them,
  // and the zero-copy frame path serves the cached references.
  Fixture fx;
  const std::size_t budget = 2 * fx.encoder->k();
  // The owner publishes digests for everything it may serve: prime the
  // metadata by walking one encoder through the whole budget, then let
  // the server regenerate the identical (deterministic) stream.
  (void)fx.encoder->generate(budget);
  const coding::FileInfo info = fx.encoder->info();

  auto source = std::make_shared<coding::chunked::Encoder>(
      fx.secret, kFileId, fx.data, fx.params, small_classes());
  p2p::MessageStore store;
  store.attach_source(kFileId, budget,
                      [source] { return source->next_message(); });
  coding::EncodedMessage verbatim;
  verbatim.file_id = kFileId;
  EXPECT_FALSE(store.store(std::move(verbatim)))
      << "verbatim writes must not mix into a sourced file";
  PeerServer::Config config;
  config.require_auth = false;
  PeerServer server(config, std::move(store));
  ASSERT_TRUE(server.start());

  const DownloadReport report = download_from(server, fx.secret, info, nullptr);
  server.stop();

  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.data, fx.data);
  EXPECT_GE(report.messages_accepted, fx.encoder->k());
}

}  // namespace
}  // namespace fairshare::net
