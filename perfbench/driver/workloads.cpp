// The three workloads.  Each builds its swarm `setups` times (setup_s is
// the median), runs a closed-loop untraced window for the end-to-end
// metrics and, with --trace, a second window under spans and probes for
// the per-layer metrics.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "bench.hpp"
#include "coding/chunked.hpp"
#include "coding/codec.hpp"
#include "coding/coefficients.hpp"
#include "crypto/auth.hpp"
#include "crypto/md5.hpp"
#include "obs/export.hpp"
#include "p2p/wire.hpp"
#include "probe.hpp"
#include "sim/rng.hpp"
#include "stats.hpp"
#include "swarm.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kPeers = 4;
constexpr double kMB = 1e6;
constexpr std::size_t kTraceRing = std::size_t{1} << 19;

std::uint64_t now_ns() { return fs::obs::monotonic_ns(); }
double to_ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }
double to_s(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

fs::coding::SecretKey secret_for(std::uint64_t seed) {
  fs::coding::SecretKey key{};
  const auto bytes = seeded_bytes(key.size(), seed ^ 0x736563726574ull);
  for (std::size_t i = 0; i < key.size(); ++i)
    key[i] = static_cast<std::uint8_t>(bytes[i]);
  return key;
}

// ------------------------------------------------------------ set-up

/// Builds the swarm `setups` times, keeps the last one, and records
/// setup_s / encode_MBps as medians over the set-ups.
/// Each set-up draws its own RSA keys (`make` gets the set-up index), so
/// the median also evens out how long the prime search happens to take.
template <typename Make>
std::unique_ptr<Swarm> set_up(int setups, Make make, Report& report,
                              double& encode_ms_per_mb) {
  std::vector<double> seconds, encode_mbps, encode_ms, encode_s, keygen, start;
  std::unique_ptr<Swarm> swarm;
  for (int i = 0; i < setups; ++i) {
    swarm.reset();  // one swarm alive at a time
    SetupCost cost;
    swarm = make(i, cost);
    seconds.push_back(cost.seconds);
    keygen.push_back(cost.keygen_seconds);
    encode_s.push_back(cost.encode_seconds);
    start.push_back(cost.start_seconds);
    encode_mbps.push_back(cost.coded_bytes / kMB / cost.encode_seconds);
    encode_ms.push_back(cost.encode_seconds * 1e3 / (cost.coded_bytes / kMB));
  }
  report.line(fmt("encode_MBps %.4f MB/s", median(encode_mbps)) +
              " (median of " + std::to_string(setups) + " set-ups)");
  report.e2e("setup_s", median(seconds), "s");
  encode_ms_per_mb = median(encode_ms);
  std::string all;
  for (double s : seconds) all += fmt(" %.3f", s);
  report.line("setup_s samples (n=" + std::to_string(seconds.size()) +
              "):" + all);
  report.line(fmt("setup split (medians): keygen %.3f s", median(keygen)) +
              fmt(", encode %.3f s", median(encode_s)) +
              fmt(", bring-up %.3f s", median(start)));
  return swarm;
}

// ------------------------------------------------------------ download

/// One verified download, timed from the resolve (or the dial) to bytes
/// compared against the original.
struct Download {
  bool ok = false;
  bool short_resolve = false;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  double bytes = 0.0;  ///< original-file bytes when ok
  double resolve_ms = 0.0;
  int hops = 0;
  std::size_t retries = 0;
  std::vector<fs::net::PeerDownloadStats> per_peer;
  std::uint64_t return_ns = 0;  ///< download_file returned
  std::uint64_t root_span = 0;
  const Swarm::File* file = nullptr;
  std::unique_ptr<DownloadProbe> probe;  ///< traced downloads only
};

struct Tracing {
  fs::obs::MetricsRegistry registry{kTraceRing};
  fs::obs::SpanRing& ring() { return registry.spans(); }
  /// Stop starting traced downloads once the ring is this full, so the
  /// self-time table never reads a wrapped ring.
  bool ring_full() { return ring().pushed() > ring().capacity() * 3 / 4; }
};

Download download_once(const Swarm& swarm, const Swarm::File& file,
                       const User& user, std::uint64_t nonce_seed,
                       fs::obs::MetricsRegistry& client_registry,
                       Tracing* tracing, bool capture, bool federated) {
  Download d;
  d.file = &file;
  fs::obs::SpanRing* ring = tracing ? &tracing->ring() : nullptr;
  d.start_ns = now_ns();
  fs::obs::TraceSpan root(ring, "download");
  d.root_span = root.id();
  std::vector<fs::net::PeerEndpoint> peers;
  if (federated) {
    fs::obs::TraceSpan span(ring, "disco.resolve", root.id());
    peers = swarm.resolve(file.id, &d.hops);
    span.end();
    d.resolve_ms = to_ms(now_ns() - d.start_ns);
    if (peers.size() < kPeers) {
      d.short_resolve = true;
      d.end_ns = now_ns();
      return d;
    }
  } else {
    peers = swarm.endpoints();
  }
  fs::net::DownloadOptions options;
  options.user_id = user.id;
  options.user_key = &user.key;
  options.rng_seed = nonce_seed;
  options.registry = &client_registry;
  fs::net::DownloadReport result;
  {
    fs::obs::TraceSpan call(ring, "net.download_file", root.id());
    if (tracing) {
      d.probe = std::make_unique<DownloadProbe>();
      d.probe->ring = ring;
      d.probe->parent_span = call.id();
      d.probe->capture = capture;
      options.transport_factory = probing_factory(*d.probe);
    }
    result = fs::net::download_file(peers, swarm.secret(), file.info, options);
    d.return_ns = now_ns();
  }
  {
    fs::obs::TraceSpan span(ring, "verify.compare", root.id());
    d.ok = result.success && same_bytes(result.data, file.data);
  }
  d.end_ns = now_ns();
  d.bytes = d.ok ? static_cast<double>(file.data.size()) : 0.0;
  d.retries = result.sessions_retried;
  d.per_peer = std::move(result.per_peer);
  return d;
}

void count(const Download& d, Report& report) {
  ++report.attempted;
  if (d.ok) return;
  ++report.failed;
  report.fail(d.short_resolve ? "resolve of file " + std::to_string(d.file->id) +
                                    " returned fewer than 4 providers"
                              : "download of file " +
                                    std::to_string(d.file->id) +
                                    " failed or returned wrong bytes");
}

/// Downloads whose verified bytes landed inside one measured window.
struct Window {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::vector<Download> downloads;
  double seconds() const { return to_s(end_ns - start_ns); }
  double goodput_mbps() const {
    double bytes = 0.0;
    for (const auto& d : downloads) bytes += d.bytes;
    return bytes / kMB / seconds();
  }
  std::vector<double> latencies_ms() const {
    std::vector<double> out;
    for (const auto& d : downloads)
      if (d.ok) out.push_back(to_ms(d.end_ns - d.start_ns));
    return out;
  }
};

/// Seeded uniform picks among `n` files, drawn as a fresh shuffle of all
/// `n` per cycle: each pick is uniform, and every file is fetched equally
/// often, so the latency median does not wander with which sizes a seed
/// happens to pick most.
class Picker {
 public:
  Picker(std::size_t n, std::uint64_t seed) : order_(n), rng_(seed) {
    for (std::size_t i = 0; i < n; ++i) order_[i] = i;
    next_ = n;
  }
  std::size_t next() {
    if (next_ == order_.size()) {
      for (std::size_t i = order_.size(); i > 1; --i)
        std::swap(order_[i - 1], order_[rng_.next_below(i)]);
      next_ = 0;
    }
    return order_[next_++];
  }

 private:
  std::vector<std::size_t> order_;
  fairshare::sim::SplitMix64 rng_;
  std::size_t next_ = 0;
};

/// One user in a closed loop for `seconds`: the next download starts when
/// the previous one is verified.  The window closes when the last download
/// that started inside it completes.
Window closed_loop(const Swarm& swarm, const User& user, Picker& pick,
                   double seconds,
                   std::uint64_t& nonce,
                   fs::obs::MetricsRegistry& client_registry, Tracing* tracing,
                   std::size_t capture_first, Report& report) {
  Window w;
  w.start_ns = now_ns();
  const auto deadline =
      w.start_ns + static_cast<std::uint64_t>(seconds * 1e9);
  while (now_ns() < deadline && !(tracing && tracing->ring_full())) {
    const bool capture = w.downloads.size() < capture_first;
    const auto& file = swarm.files()[pick.next()];
    Download d = download_once(swarm, file, user, ++nonce, client_registry,
                               tracing, capture, /*federated=*/true);
    count(d, report);
    w.downloads.push_back(std::move(d));
  }
  w.end_ns = now_ns();
  return w;
}

// ------------------------------------------------------------ replay

/// The coding layer measured through its public calls, over the coded
/// frames a traced download received, in arrival order.
struct Replay {
  double payload_bytes = 0.0;  ///< messages parsed
  double added_bytes = 0.0;    ///< messages fed to CodecDecoder::add
  std::uint64_t added = 0;
  std::uint64_t non_innovative = 0;
  std::uint64_t verify_ns = 0, md5_ns = 0, coeff_ns = 0, add_ns = 0;
  std::vector<double> reconstruct_ms;
};

void replay(const Download& d, const fs::coding::SecretKey& secret,
            fs::obs::SpanRing* ring, Replay& out, Report& report) {
  const Swarm::File& file = *d.file;
  const fs::coding::FileInfo& info = file.info;
  fs::obs::TraceSpan span(ring, "coding.replay", d.root_span);
  std::vector<fs::coding::EncodedMessage> messages;
  for (const auto& frame : d.probe->frames) {
    auto m = fs::p2p::wire::decode_coded_message(frame);
    if (!m) {
      report.fail("replay: unparseable coded frame");
      return;
    }
    out.payload_bytes += static_cast<double>(m->payload.size());
    messages.push_back(std::move(*m));
  }
  {
    fs::obs::TraceSpan s(ring, "coding.verify", span.id());
    const std::uint64_t t0 = now_ns();
    std::size_t bad = 0;
    for (const auto& m : messages) {
      const auto it = info.message_digests.find(m.message_id);
      bad += it == info.message_digests.end() || m.digest() != it->second;
    }
    out.verify_ns += now_ns() - t0;
    if (bad) report.fail("replay: " + std::to_string(bad) + " messages fail their MD5 digest");
  }
  {
    fs::obs::TraceSpan s(ring, "crypto.md5", span.id());
    const std::uint64_t t0 = now_ns();
    volatile std::uint8_t sink = 0;  // keeps the hashes live
    for (const auto& m : messages)
      sink = sink ^ fs::crypto::Md5::hash(std::span<const std::byte>(m.payload))[0];
    out.md5_ns += now_ns() - t0;
  }
  {
    fs::obs::TraceSpan s(ring, "coding.coeff", span.id());
    const std::size_t width =
        info.codec == fs::coding::CodecKind::chunked
            ? fs::coding::chunked::ClassMap(info.k, info.schedule).max_width()
            : info.k;
    const fs::coding::CoefficientGenerator gen(secret, info.file_id,
                                               info.params, width);
    const std::uint64_t t0 = now_ns();
    std::size_t sink = 0;
    for (const auto& m : messages) sink += gen.row(m.message_id).size();
    out.coeff_ns += now_ns() - t0;
    if (sink == 0 && !messages.empty()) report.fail("empty coefficient rows");
  }
  fs::coding::CodecDecoder decoder(secret, info);
  {
    fs::obs::TraceSpan s(ring, "coding.add", span.id());
    const std::uint64_t t0 = now_ns();
    for (const auto& m : messages) {
      if (decoder.complete()) break;
      const auto r = decoder.add(m);
      ++out.added;
      out.added_bytes += static_cast<double>(m.payload.size());
      if (r == fs::coding::AddResult::non_innovative) ++out.non_innovative;
    }
    out.add_ns += now_ns() - t0;
  }
  if (!decoder.complete()) {
    report.fail("replay: received messages do not decode");
    return;
  }
  fs::obs::TraceSpan s(ring, "coding.reconstruct", span.id());
  const std::uint64_t t0 = now_ns();
  const auto bytes = decoder.reconstruct();
  out.reconstruct_ms.push_back(to_ms(now_ns() - t0));
  s.end();
  if (!same_bytes(bytes, file.data)) report.fail("replay: wrong bytes");
}

// ------------------------------------------------------------ per layer

/// Every per-layer metric, in one fixed order for every workload.  A
/// layer a workload does not exercise reads 0 (e.g. resolves in
/// fair_share).
struct Layers {
  double resolve_ms_p50 = 0, resolve_hops_mean = 0, resolve_short = 0;
  double auth_ms_p50 = 0, md5_mbps = 0;
  double verify_ms_per_mb = 0, coeff_ms_per_mb = 0, add_ms_per_mb = 0,
         eliminate_ms_per_mb = 0, encode_ms_per_mb = 0, reconstruct_ms = 0,
         non_innovative_frac = 0;
  double session_setup_ms_p50 = 0, recv_wait_ms_per_download = 0,
         frames_per_download = 0, wire_bytes_per_download = 0,
         redundant_frac = 0, tail_ms = 0, retries = 0;
  double loop_busy_frac = 0, loop_wakeups_per_mb = 0, sessions_rejected = 0,
         ticks_run_frac = 0, tick_us_p50 = 0;
  double share_dev_max = 0, grant_sum_ratio = 0;
  double store_mb = 0;
  double trace_overhead_frac = 0;
  std::map<std::string, double> self_ms;  ///< span name -> per download
  double unaccounted_ms = 0;
};

/// Span names whose self time is reported, in table order.
constexpr const char* kSelfSpans[] = {
    "disco.resolve", "net.download_file", "net.session", "net.dial",
    "net.recv",      "verify.compare"};

void emit(const Layers& l, Report& r) {
  r.layer("disco.resolve_ms_p50", l.resolve_ms_p50, "ms");
  r.layer("disco.resolve_hops_mean", l.resolve_hops_mean, "count");
  r.layer("disco.resolve_short", l.resolve_short, "count");
  r.layer("crypto.auth_ms_p50", l.auth_ms_p50, "ms");
  r.layer("crypto.md5_MBps", l.md5_mbps, "MB/s");
  r.layer("coding.verify_ms_per_MB", l.verify_ms_per_mb, "ms/MB");
  r.layer("coding.coeff_ms_per_MB", l.coeff_ms_per_mb, "ms/MB");
  r.layer("coding.add_ms_per_MB", l.add_ms_per_mb, "ms/MB");
  r.layer("coding.eliminate_ms_per_MB", l.eliminate_ms_per_mb, "ms/MB");
  r.layer("coding.encode_ms_per_MB", l.encode_ms_per_mb, "ms/MB");
  r.layer("coding.reconstruct_ms", l.reconstruct_ms, "ms");
  r.layer("coding.non_innovative_frac", l.non_innovative_frac, "ratio");
  r.layer("net.session_setup_ms_p50", l.session_setup_ms_p50, "ms");
  r.layer("net.recv_wait_ms_per_download", l.recv_wait_ms_per_download, "ms");
  r.layer("net.frames_per_download", l.frames_per_download, "count");
  r.layer("net.wire_bytes_per_download", l.wire_bytes_per_download, "bytes");
  r.layer("net.redundant_frac", l.redundant_frac, "ratio");
  r.layer("net.tail_ms", l.tail_ms, "ms");
  r.layer("net.retries", l.retries, "count");
  r.layer("net.loop_busy_frac", l.loop_busy_frac, "ratio");
  r.layer("net.loop_wakeups_per_MB", l.loop_wakeups_per_mb, "1/MB");
  r.layer("net.sessions_rejected", l.sessions_rejected, "count");
  r.layer("net.ticks_run_frac", l.ticks_run_frac, "ratio");
  r.layer("net.tick_us_p50", l.tick_us_p50, "us");
  r.layer("alloc.share_dev_max", l.share_dev_max, "ratio");
  r.layer("alloc.grant_sum_ratio", l.grant_sum_ratio, "ratio");
  r.layer("p2p.store_MB", l.store_mb, "MB");
  r.layer("obs.trace_overhead_frac", l.trace_overhead_frac, "ratio");
  for (const char* name : kSelfSpans) {
    const auto it = l.self_ms.find(name);
    r.layer(std::string("self.") + name + "_ms",
            it == l.self_ms.end() ? 0.0 : it->second, "ms");
  }
  r.layer("trace.unaccounted_ms", l.unaccounted_ms, "ms");
}

/// Server-side registry totals, read before and after the traced window.
struct ServerCounters {
  std::uint64_t read_ns = 0;  ///< when the counters were read
  double busy_ns = 0, wait_ns = 0, wakeups = 0, bytes = 0, rejected = 0;
  fs::obs::Histogram::Snapshot quantum;  ///< merged over servers
};

ServerCounters read_servers(const fs::obs::MetricsRegistry& registry) {
  ServerCounters c;
  c.read_ns = now_ns();
  const auto snap = registry.snapshot(0);
  for (const auto& s : snap.counters) {
    const auto v = static_cast<double>(s.value);
    if (s.name == "fairshare_loop_busy_ns_total") c.busy_ns += v;
    if (s.name == "fairshare_loop_wait_ns_total") c.wait_ns += v;
    if (s.name == "fairshare_loop_wakeups_total") c.wakeups += v;
    if (s.name == "fairshare_server_user_bytes_total") c.bytes += v;
    if (s.name == "fairshare_server_sessions_rejected_total") c.rejected += v;
  }
  bool first = true;
  for (const auto& h : snap.histograms) {
    if (h.name != "fairshare_server_quantum_ns") continue;
    auto& q = c.quantum;
    for (std::size_t i = 0; i < q.buckets.size(); ++i)
      q.buckets[i] += h.snap.buckets[i];
    q.count += h.snap.count;
    q.sum += h.snap.sum;
    q.min = first ? h.snap.min : std::min(q.min, h.snap.min);
    q.max = first ? h.snap.max : std::max(q.max, h.snap.max);
    first = false;
  }
  return c;
}

/// Sum of the decoder's elimination histogram, in ns.
double eliminate_ns(const fs::obs::MetricsRegistry& registry) {
  double sum = 0.0;
  for (const auto& h : registry.snapshot(0).histograms)
    if (h.name == "fairshare_decoder_eliminate_ns")
      sum += static_cast<double>(h.snap.sum);
  return sum;
}

void server_layers(const ServerCounters& a, const ServerCounters& b,
                   std::size_t paced_servers, int quantum_ms, Layers& l) {
  const double busy = b.busy_ns - a.busy_ns, wait = b.wait_ns - a.wait_ns;
  l.loop_busy_frac = busy + wait > 0 ? busy / (busy + wait) : 0.0;
  const double served_mb = (b.bytes - a.bytes) / kMB;
  l.loop_wakeups_per_mb = served_mb > 0 ? (b.wakeups - a.wakeups) / served_mb : 0;
  l.sessions_rejected = b.rejected - a.rejected;
  if (paced_servers == 0) return;
  const double due = to_s(b.read_ns - a.read_ns) * 1000.0 / quantum_ms *
                     static_cast<double>(paced_servers);
  l.ticks_run_frac =
      static_cast<double>(b.quantum.count - a.quantum.count) / due;
  fs::obs::Histogram::Snapshot delta = b.quantum;
  for (std::size_t i = 0; i < delta.buckets.size(); ++i)
    delta.buckets[i] -= a.quantum.buckets[i];
  delta.count -= a.quantum.count;
  l.tick_us_p50 = delta.quantile(0.5) * 1e-3;
}

/// Client-side layers of the traced window, from the probes and reports.
void client_layers(const Window& w, Layers& l) {
  std::vector<double> resolve_ms, hops, setup_ms, tail_ms;
  double recv_ns = 0, frames = 0, wire = 0, redundant = 0, decoder_frames = 0,
         retries = 0;
  for (const Download& d : w.downloads) {
    if (d.resolve_ms > 0) {
      resolve_ms.push_back(d.resolve_ms);
      hops.push_back(d.hops);
    }
    if (d.short_resolve) l.resolve_short += 1;
    retries += static_cast<double>(d.retries);
    for (const auto& p : d.per_peer) {
      redundant += static_cast<double>(p.messages_redundant + p.messages_rejected);
      decoder_frames += static_cast<double>(
          p.messages_accepted + p.messages_redundant + p.messages_rejected);
    }
    if (!d.probe) continue;
    std::uint64_t last_frame = 0;
    for (const SessionProbe& s : d.probe->sessions) {
      recv_ns += static_cast<double>(s.recv_wait_ns);
      frames += static_cast<double>(s.frames);
      wire += static_cast<double>(s.wire_bytes);
      if (s.first_coded_ns) setup_ms.push_back(to_ms(s.first_coded_ns - s.dial_start_ns));
      last_frame = std::max(last_frame, s.last_frame_ns);
    }
    if (last_frame) tail_ms.push_back(to_ms(d.return_ns - last_frame));
  }
  const double n = std::max<double>(1.0, static_cast<double>(w.downloads.size()));
  l.resolve_ms_p50 = median(resolve_ms);
  l.resolve_hops_mean = mean(hops);
  l.session_setup_ms_p50 = median(setup_ms);
  l.recv_wait_ms_per_download = recv_ns * 1e-6 / n;
  l.frames_per_download = frames / n;
  l.wire_bytes_per_download = wire / n;
  l.redundant_frac = decoder_frames > 0 ? redundant / decoder_frames : 0.0;
  l.tail_ms = median(tail_ms);
  l.retries = retries;
}

/// One in-process AuthInitiator/AuthResponder exchange at the workload's
/// key size, timed 32 times; the p50 in ms.
double auth_ms_p50(const User& user, const fs::crypto::RsaKeyPair& peer,
                   std::uint64_t seed, fs::obs::SpanRing* ring, Report& report) {
  std::vector<double> ms;
  for (int i = 0; i < 32; ++i) {
    fs::crypto::ChaCha20 urng = chacha_for(seed + 2 * i);
    fs::crypto::ChaCha20 prng = chacha_for(seed + 2 * i + 1);
    fs::obs::TraceSpan span(ring, "crypto.auth");
    const std::uint64_t t0 = now_ns();
    fs::crypto::AuthInitiator initiator(user.id, user.key, peer.pub, urng);
    fs::crypto::AuthResponder responder(100, peer, user.key.pub, prng);
    const auto challenge = responder.on_hello(initiator.hello());
    const auto response = initiator.on_challenge(challenge);
    const bool ok = response && responder.on_response(*response);
    ms.push_back(to_ms(now_ns() - t0));
    if (!ok) report.fail("in-process authentication exchange failed");
  }
  return median(ms);
}

/// Self-time table over the traced run's spans; fills l.self_ms and
/// l.unaccounted_ms, prints the table and writes the dumps.
void self_time_table(Tracing& tracing, const Args& args, Layers& l,
                     Report& report) {
  fs::obs::SpanRing& ring = tracing.ring();
  if (ring.pushed() > ring.capacity()) {
    report.fail("span ring wrapped; self-time table would be incomplete");
    return;
  }
  const auto spans = ring.snapshot();
  const auto self = self_times(spans);
  std::map<std::string, std::pair<std::uint64_t, double>> by_name;  // n, ms
  std::vector<double> unaccounted;
  for (const auto& s : spans) {
    const double ms = to_ms(self.at(s.id));
    auto& row = by_name[s.name];
    ++row.first;
    row.second += ms;
    if (std::string(s.name) == "download") unaccounted.push_back(ms);
  }
  const double downloads = std::max<double>(1.0, static_cast<double>(unaccounted.size()));
  for (const auto& [name, row] : by_name)
    l.self_ms[name] = row.second / downloads;
  l.unaccounted_ms = median(unaccounted);

  report.line("self-time table (" + std::to_string(unaccounted.size()) +
              " traced downloads; ms per download):");
  report.line("  span                     spans   self_ms");
  for (const auto& [name, row] : by_name) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "  %-22s %7llu %9.3f", name.c_str(),
                  static_cast<unsigned long long>(row.first),
                  row.second / downloads);
    report.line(buf);
  }

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);
  fs::obs::dump_json(tracing.registry, stem + ".spans.json");
  std::ofstream out(stem + ".selftime.json");
  out << "{\"downloads\": " << unaccounted.size() << ", \"self_ms_per_download\": {";
  bool first = true;
  for (const auto& [name, row] : by_name) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << row.second / downloads;
    first = false;
  }
  out << "}, \"unaccounted_ms\": [";
  for (std::size_t i = 0; i < unaccounted.size(); ++i)
    out << (i ? ", " : "") << unaccounted[i];
  out << "]}\n";
  report.line("trace dump: " + stem + ".spans.json, " + stem + ".selftime.json");
}

void replay_layers(const Replay& r, Layers& l) {
  const double mb = r.payload_bytes / kMB;
  if (mb > 0) {
    l.verify_ms_per_mb = to_ms(r.verify_ns) / mb;
    l.coeff_ms_per_mb = to_ms(r.coeff_ns) / mb;
    l.md5_mbps = mb / to_s(r.md5_ns);
  }
  if (r.added_bytes > 0) l.add_ms_per_mb = to_ms(r.add_ns) / (r.added_bytes / kMB);
  l.reconstruct_ms = median(r.reconstruct_ms);
  l.non_innovative_frac =
      r.added ? static_cast<double>(r.non_innovative) / static_cast<double>(r.added) : 0;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024.0 / kMB;
  return 0.0;
}

void latency_lines(const Window& w, Report& report) {
  const auto lat = w.latencies_ms();
  report.line("downloads in window: " + std::to_string(w.downloads.size()) +
              fmt(" over %.3f s", w.seconds()));
  auto sorted = lat;
  std::sort(sorted.begin(), sorted.end());
  if (!sorted.empty())
    report.line(fmt("download_ms min %.3f", sorted.front()) +
                fmt(" p25 %.3f", sorted[sorted.size() / 4]) +
                fmt(" p50 %.3f", median(sorted)) +
                fmt(" p75 %.3f", sorted[sorted.size() * 3 / 4]) +
                fmt(" max %.3f", sorted.back()));
  const auto p99 = tail_percentile(lat, 0.99);
  report.line(p99 ? fmt("download_ms_p99 %.4f ms", *p99) +
                        " (n=" + std::to_string(lat.size()) + ")"
                  : "download_ms_p99 not reported: n=" +
                        std::to_string(lat.size()) +
                        " leaves fewer than 10 samples beyond the 99th percentile");
}

void finish_e2e(const Window& w, Report& report) {
  report.e2e("goodput_MBps", w.goodput_mbps(), "MB/s");
  report.e2e("download_ms_p50", median(w.latencies_ms()), "ms");
  report.e2e("peak_rss_MB", peak_rss_mb(), "MB");
  latency_lines(w, report);
}

// ------------------------------------------------------------ federated

constexpr int kQuantumMs = 20;  // PeerServer default

/// video and photos: one user, a 4-peer federation whose every peer's
/// upload is paced at `rate_kbps`, resolve before every download.
void run_federated(const Args& args, std::vector<FileSpec> (*files)(std::uint64_t),
                   double rate_kbps, int setups, std::size_t capture_first,
                   Report& report) {
  const fs::coding::SecretKey secret = secret_for(args.seed);
  fs::obs::MetricsRegistry server_registry, disco_registry, client_registry;
  SwarmConfig config;
  config.peers = kPeers;
  config.rate_kbps = rate_kbps;
  config.seed = args.seed;
  config.server_registry = &server_registry;
  config.disco_registry = &disco_registry;
  Layers layers;
  auto swarm = set_up(
      setups,
      [&](int i, SetupCost& cost) {
        config.key_seed = args.seed * 64 + i;
        return std::make_unique<Swarm>(config, files(args.seed), secret, cost);
      },
      report, layers.encode_ms_per_mb);
  layers.store_mb = swarm->store_bytes() / kMB;
  const User& user = swarm->users()[0];
  Picker pick(swarm->files().size(), args.seed ^ 0x7069636bull);
  std::uint64_t nonce = args.seed << 20;

  // Warm-up: one download per file, so every decoder instrument and
  // connection path exists before timing.
  for (const auto& f : swarm->files())
    count(download_once(*swarm, f, user, ++nonce, client_registry, nullptr,
                        false, true),
          report);

  const Window untraced = closed_loop(*swarm, user, pick, args.seconds, nonce,
                                      client_registry, nullptr, 0, report);
  finish_e2e(untraced, report);
  if (!args.trace) return;

  Tracing tracing;
  const ServerCounters before = read_servers(server_registry);
  const double elim_before = eliminate_ns(client_registry);
  const Window traced = closed_loop(*swarm, user, pick, args.seconds, nonce,
                                    client_registry, &tracing, capture_first,
                                    report);
  const ServerCounters after = read_servers(server_registry);
  double traced_mb = 0;
  for (const auto& d : traced.downloads) traced_mb += d.bytes / kMB;
  layers.eliminate_ms_per_mb =
      traced_mb > 0 ? (eliminate_ns(client_registry) - elim_before) * 1e-6 / traced_mb : 0;
  server_layers(before, after, kPeers, kQuantumMs, layers);
  client_layers(traced, layers);
  layers.trace_overhead_frac = 1.0 - traced.goodput_mbps() / untraced.goodput_mbps();

  Replay r;
  for (const auto& d : traced.downloads)
    if (d.probe && d.probe->capture) replay(d, secret, &tracing.ring(), r, report);
  replay_layers(r, layers);
  layers.auth_ms_p50 =
      auth_ms_p50(user, swarm->peer_key(0), args.seed, &tracing.ring(), report);
  self_time_table(tracing, args, layers, report);
  emit(layers, report);
}

}  // namespace

// ------------------------------------------------------------ video

void run_video(const Args& args, Report& report) {
  constexpr std::size_t kFileBytes = std::size_t{64} << 20;
  const auto files = [](std::uint64_t seed) {
    FileSpec spec;
    spec.id = 1;
    spec.data = seeded_bytes(kFileBytes, seed);
    spec.params = fs::coding::CodingParams{fs::gf::FieldId::gf2_32, 1u << 15};
    spec.chunked = true;
    spec.per_peer_fraction = 0.5;  // k' = k/2: no peer can serve alone
    return std::vector<FileSpec>{std::move(spec)};
  };
  // 40 Mbit/s per peer: 20 MB/s aggregate, about a third of what the
  // decoder sustains unpaced on 4 vCPUs, so a download is paced by the
  // peers' uplinks and not by how much CPU the host lends the run.
  run_federated(args, +files, /*rate_kbps=*/40000.0, /*setups=*/3,
                /*capture_first=*/1, report);
}

// ------------------------------------------------------------ photos

void run_photos(const Args& args, Report& report) {
  constexpr std::size_t kFiles = 32;
  const auto files = [](std::uint64_t seed) {
    fairshare::sim::SplitMix64 rng(seed ^ 0x70686f746f73ull);
    std::vector<FileSpec> out;
    // Sizes are one fixed ladder over 64-512 KiB (the middle of each of 32
    // equal slices); the seed sets contents and pick order.  Pacing turns a
    // download into whole 20 ms ticks, so sizes drawn per seed moved which
    // tick the median download ends in: p50 differed by 9% between seeds
    // while goodput held to 1%.
    for (std::size_t i = 0; i < kFiles; ++i) {
      FileSpec spec;
      spec.id = 1000 + i;
      const double lo = 64 << 10, hi = 512 << 10;
      const auto size = static_cast<std::size_t>(
          lo + (hi - lo) * (static_cast<double>(i) + 0.5) / kFiles);
      spec.data = seeded_bytes(size, rng.next());
      spec.params = fs::coding::CodingParams{fs::gf::FieldId::gf2_8, 4096};
      out.push_back(std::move(spec));
    }
    return out;
  };
  // 8 Mbit/s per peer: session set-up is about a quarter of a median
  // download, large enough to show, small enough that a slow second on the
  // host does not move the median by more than a few percent.
  run_federated(args, +files, /*rate_kbps=*/8000.0, /*setups=*/9,
                /*capture_first=*/16, report);
}

// ------------------------------------------------------------ fair_share

namespace {

constexpr double kRateKbps = 16000.0;
constexpr double kLedgerUnit = 1e12;  // bytes; dwarfs what a run serves

struct FairWindow {
  Window window;
  std::vector<double> served;  ///< user_bytes_sent deltas, by user
  std::vector<std::vector<fs::net::PeerServer::AllocationShare>> samples;
  std::vector<Download> captured;  ///< traced downloads kept for replay
  double phase_bytes = 0.0;  ///< verified bytes of every download, in or out of the window
};

/// Four users, each in its own closed loop over its own file against one
/// paced server.  A 1 s warm-up lets every user reach the streaming state
/// before the window opens; the window closes on the clock, and counts
/// the downloads verified inside it.
FairWindow fair_window(Swarm& swarm, double seconds,
                       fs::obs::MetricsRegistry& client_registry,
                       Tracing* tracing, std::uint64_t& nonce, Report& report) {
  const std::size_t users = swarm.users().size();
  fs::net::PeerServer& server = *swarm.servers()[0];
  std::atomic<bool> stop{false};
  std::mutex mutex;
  std::vector<Download> done;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> next_nonce{nonce};
  for (std::size_t u = 0; u < users; ++u) {
    threads.emplace_back([&, u] {
      bool first = true;
      while (!stop.load()) {
        Download d = download_once(swarm, swarm.files()[u], swarm.users()[u],
                                   ++next_nonce, client_registry, tracing,
                                   tracing && first, /*federated=*/false);
        first = false;
        std::lock_guard<std::mutex> lock(mutex);
        done.push_back(std::move(d));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(1));
  FairWindow out;
  std::vector<double> start_bytes(users);
  for (std::size_t u = 0; u < users; ++u)
    start_bytes[u] = static_cast<double>(server.user_bytes_sent(swarm.users()[u].id));
  out.window.start_ns = now_ns();
  const std::uint64_t deadline =
      out.window.start_ns + static_cast<std::uint64_t>(seconds * 1e9);
  while (now_ns() < deadline) {
    const std::uint64_t step = std::min<std::uint64_t>(deadline - now_ns(), 50'000'000);
    std::this_thread::sleep_for(std::chrono::nanoseconds(step));
    if (tracing) out.samples.push_back(server.allocation_snapshot());
  }
  out.window.end_ns = now_ns();
  for (std::size_t u = 0; u < users; ++u)
    out.served.push_back(
        static_cast<double>(server.user_bytes_sent(swarm.users()[u].id)) -
        start_bytes[u]);
  stop = true;
  for (auto& t : threads) t.join();
  nonce = next_nonce;
  for (auto& d : done) {
    count(d, report);
    out.phase_bytes += d.bytes;
    if (d.end_ns >= out.window.start_ns && d.end_ns <= out.window.end_ns)
      out.window.downloads.push_back(std::move(d));
    else if (d.probe && d.probe->capture)
      out.captured.push_back(std::move(d));
  }
  return out;
}

std::vector<double> ledger(const std::vector<double>& seeded,
                           const fs::net::PeerServer& server,
                           const std::vector<User>& users) {
  std::vector<double> s(seeded);
  for (std::size_t u = 0; u < users.size(); ++u)
    s[u] += static_cast<double>(server.user_bytes_sent(users[u].id));
  return s;
}

}  // namespace

void run_fair_share(const Args& args, Report& report) {
  constexpr std::size_t kUsers = 4;
  constexpr std::size_t kFileBytes = 512 << 10;
  const fs::coding::SecretKey secret = secret_for(args.seed);
  fs::obs::MetricsRegistry server_registry, client_registry;
  SwarmConfig config;
  config.peers = 1;
  config.discovery = false;
  config.rate_kbps = kRateKbps;
  config.users = kUsers;
  for (std::size_t u = 0; u < kUsers; ++u)
    config.contributions.push_back(kLedgerUnit * static_cast<double>(u + 1));
  config.seed = args.seed;
  config.server_registry = &server_registry;
  const auto files = [&] {
    std::vector<FileSpec> out;
    for (std::size_t u = 0; u < kUsers; ++u) {
      FileSpec spec;
      spec.id = 2000 + u;
      spec.data = seeded_bytes(kFileBytes, args.seed * 31 + u);
      spec.params = fs::coding::CodingParams{fs::gf::FieldId::gf2_8, 4096};
      out.push_back(std::move(spec));
    }
    return out;
  };
  Layers layers;
  auto swarm = set_up(
      /*setups=*/9,  // each is cheap; more set-ups steady the median
      [&](int i, SetupCost& cost) {
        config.key_seed = args.seed * 64 + i;
        return std::make_unique<Swarm>(config, files(), secret, cost);
      },
      report, layers.encode_ms_per_mb);
  layers.store_mb = swarm->store_bytes() / kMB;
  const fs::net::PeerServer& server = *swarm->servers()[0];
  std::uint64_t nonce = args.seed << 20;

  const auto shares_line = [&](const FairWindow& fw) {
    const auto predicted = eq2_shares(ledger(config.contributions, server, swarm->users()),
                                      std::vector<bool>(kUsers, true));
    double served = 0;
    for (double b : fw.served) served += b;
    std::string obs_line = "observed/predicted byte shares:";
    for (std::size_t u = 0; u < kUsers; ++u)
      obs_line += fmt(" %.4f", fw.served[u] / served) + fmt("/%.2f", predicted[u]);
    report.line(obs_line);
    report.line(fmt("eq2_share_min %.4f ratio", share_ratio_min(fw.served, predicted)) +
                " (n=" + std::to_string(kUsers) + " users)");
    report.line(fmt("pacing_utilization %.4f ratio",
                    served / (kRateKbps * 1000.0 / 8.0 * fw.window.seconds())));
  };

  const FairWindow untraced =
      fair_window(*swarm, args.seconds, client_registry, nullptr, nonce, report);
  finish_e2e(untraced.window, report);
  shares_line(untraced);
  if (!args.trace) return;

  Tracing tracing;
  const ServerCounters before = read_servers(server_registry);
  const double elim_before = eliminate_ns(client_registry);
  FairWindow traced =
      fair_window(*swarm, args.seconds, client_registry, &tracing, nonce, report);
  const ServerCounters after = read_servers(server_registry);
  // The elimination histogram also saw the warm-up and drain downloads.
  layers.eliminate_ms_per_mb =
      (eliminate_ns(client_registry) - elim_before) * 1e-6 / (traced.phase_bytes / kMB);
  server_layers(before, after, 1, kQuantumMs, layers);
  client_layers(traced.window, layers);
  layers.trace_overhead_frac =
      1.0 - traced.window.goodput_mbps() / untraced.window.goodput_mbps();

  // Allocation: granted rate share vs. the benchmark's own Eq. (2) oracle
  // over the users granted at that tick.
  std::vector<double> grant_sums;
  for (const auto& sample : traced.samples) {
    std::vector<double> s(kUsers), granted(kUsers);
    std::vector<bool> requesting(kUsers, false);
    double grant_sum = 0;
    for (const auto& a : sample) {
      const std::size_t u = a.user_id - 1;
      if (u >= kUsers) continue;
      s[u] = config.contributions[u] + static_cast<double>(a.bytes_sent);
      granted[u] = a.rate_kbps / kRateKbps;
      requesting[u] = a.rate_kbps > 0;
      grant_sum += a.rate_kbps;
    }
    if (grant_sum <= 0) continue;
    grant_sums.push_back(grant_sum / kRateKbps);
    const auto predicted = eq2_shares(s, requesting);
    for (std::size_t u = 0; u < kUsers; ++u)
      layers.share_dev_max =
          std::max(layers.share_dev_max, std::abs(granted[u] - predicted[u]));
  }
  layers.grant_sum_ratio = mean(grant_sums);

  Replay r;
  for (const auto* list : {&traced.window.downloads, &traced.captured})
    for (const auto& d : *list)
      if (d.probe && d.probe->capture) replay(d, secret, &tracing.ring(), r, report);
  replay_layers(r, layers);
  layers.auth_ms_p50 = auth_ms_p50(swarm->users()[0], swarm->peer_key(0),
                                   args.seed, &tracing.ring(), report);
  self_time_table(tracing, args, layers, report);
  emit(layers, report);
}

}  // namespace perfbench
