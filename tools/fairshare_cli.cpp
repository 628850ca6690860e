// fairshare command-line tool: encode real files into coded messages,
// decode them back, and inspect carried metadata.
//
//   fairshare_cli encode  <input> <out-dir> --secret <passphrase>
//                 [--field 4|8|16|32] [--m N] [--messages N]
//   fairshare_cli decode  <info.bin> <out-file> --secret <passphrase>
//                 <message files...>
//   fairshare_cli info    <info.bin>
//   fairshare_cli caps    (alias: version)
//   fairshare_cli stats   <stats.json> [--pid <pid>]
//   fairshare_cli replay  <poisson|zipf|flash|diurnal|trace.dxt>
//                 [--mode sim|live|both] [--rate-kbps R] [--slot-seconds S]
//                 [--users N] [--events N] [--horizon N] [--mean-bytes B]
//                 [--file-bytes B] [--seed S] [--out report.json] [--dump]
//
// replay runs one workload trace — a synthetic generator family or an
// imported Darshan-DXT-like log — through the slotted simulator
// (sim::replay_sim), against a live PeerServer over TCP
// (net::replay_live), or both, and emits the ReplayReport JSON; in both
// mode the document wraps the two reports plus the sim-vs-live agreement
// verdict of sim::replay_agrees and the exit status reflects it.  --dump
// prints the normalized trace text instead of running anything.
//
// caps prints the build version, detected CPU features (including the
// GFNI/AVX-512 bits the wide-field kernels key on), any active
// FAIRSHARE_KERNEL_CAP tier cap, the row-kernel variant each field
// dispatched to, and the net serving backend a PeerServer would pick here
// (epoll availability included), so perf reports are attributable to a
// code path.
//
// stats pretty-prints a registry dump written by the obs JSON exporter
// (e.g. PeerServer::Config::stats_json_path).  With --pid it first sends
// SIGUSR1 to a live process and waits for the dump file to be rewritten,
// so it reads fresh numbers from a running peer.
//
// encode writes out-dir/info.bin (the wire-format FileInfo the user
// carries) and out-dir/msg_<id>.bin (one framed coded message each —
// exactly what a peer would store).  decode needs any k innovative
// message files plus the passphrase; order does not matter, corrupted
// files are rejected by their MD5 digests and reported.
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <signal.h>
#endif

#include "coding/chunked.hpp"
#include "coding/codec.hpp"
#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "crypto/sha256.hpp"
#include "disco/client.hpp"
#include "disco/node.hpp"
#include "gf/row_ops.hpp"
#include "net/event_loop.hpp"
#include "net/peer_server.hpp"
#include "net/replay_driver.hpp"
#include "p2p/wire.hpp"
#include "sim/replay.hpp"
#include "sim/workload.hpp"

#ifndef FAIRSHARE_VERSION
#define FAIRSHARE_VERSION "dev"
#endif

namespace fs = std::filesystem;
using namespace fairshare;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  fairshare_cli encode <input> <out-dir> --secret <pass>"
               " [--field 4|8|16|32] [--m N] [--messages N]\n"
               "                 [--codec dense|chunked] [--class-size N]"
               " [--overlap N] [--schedule-seed S]\n"
               "  fairshare_cli decode <info.bin> <out-file> --secret <pass>"
               " <message files...>\n"
               "  fairshare_cli info <info.bin>\n"
               "  fairshare_cli caps   (print CPU features and dispatched"
               " row kernels; alias: version)\n"
               "  fairshare_cli stats <stats.json> [--pid <pid>]"
               "   (pretty-print a registry dump; --pid: SIGUSR1 the\n"
               "                 process and wait for a fresh dump first)\n"
               "  fairshare_cli replay <poisson|zipf|flash|diurnal|trace.dxt>"
               " [--mode sim|live|both]\n"
               "                 [--rate-kbps R] [--slot-seconds S]"
               " [--users N] [--events N] [--horizon N]\n"
               "                 [--mean-bytes B] [--file-bytes B] [--seed S]"
               " [--out report.json] [--dump]\n"
               "  fairshare_cli disco join [--host H] [--port P]"
               " [--ring-id N] [--node host:port ...]\n"
               "                 (run a discovery node until SIGINT)\n"
               "  fairshare_cli disco announce <file-id> --node host:port"
               " --provider-port P\n"
               "                 [--provider-host H] [--peer-id N]"
               " [--ttl-ms N]\n"
               "  fairshare_cli disco resolve <file-id> --node host:port"
               " ...\n"
               "  fairshare_cli disco status --node host:port ...\n");
  return 2;
}

coding::SecretKey secret_from_passphrase(const std::string& pass) {
  const crypto::Sha256Digest d = crypto::Sha256::hash(pass);
  coding::SecretKey key;
  std::copy(d.begin(), d.end(), key.begin());
  return key;
}

bool read_file(const fs::path& path, std::vector<std::byte>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0);
  out.resize(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(out.data()), size);
  return in.good() || size == 0;
}

bool write_file(const fs::path& path, std::span<const std::byte> data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return out.good();
}

struct Options {
  std::string secret;
  unsigned field_bits = 32;
  std::size_t m = 1u << 15;
  std::size_t messages = 0;  // 0 = k (one decodable batch)
  std::string codec = "dense";
  coding::ChunkedSchedule schedule;  // encode --codec chunked geometry
  long pid = 0;              // stats: signal this process first
  // replay
  std::string mode = "sim";
  double rate_kbps = 4000.0;
  double slot_seconds = 0.05;
  std::size_t users = 3;
  std::size_t events = 24;
  std::uint64_t horizon = 32;
  std::uint64_t mean_bytes = 32 * 1024;
  std::uint64_t file_bytes = 20000;
  std::uint64_t seed = 1;
  std::string out_path;
  bool dump = false;
  // disco
  std::vector<std::string> nodes;   // --node host:port (repeatable)
  std::string host = "127.0.0.1";   // disco join bind/advertise address
  std::uint16_t port = 0;           // disco join listen port (0 = pick)
  std::uint64_t ring_id = 0;        // disco join ring position (0 = derive)
  std::uint64_t peer_id = 0;        // disco announce provider peer id
  std::string provider_host = "127.0.0.1";
  std::uint16_t provider_port = 0;  // disco announce serving port
  std::uint32_t ttl_ms = 10'000;    // disco announce record lifetime
  std::vector<std::string> positional;
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--secret") {
      const char* v = next("--secret");
      if (!v) return false;
      opt.secret = v;
    } else if (arg == "--field") {
      const char* v = next("--field");
      if (!v) return false;
      opt.field_bits = static_cast<unsigned>(std::stoul(v));
    } else if (arg == "--m") {
      const char* v = next("--m");
      if (!v) return false;
      opt.m = std::stoull(v);
    } else if (arg == "--messages") {
      const char* v = next("--messages");
      if (!v) return false;
      opt.messages = std::stoull(v);
    } else if (arg == "--codec") {
      const char* v = next("--codec");
      if (!v) return false;
      opt.codec = v;
    } else if (arg == "--class-size") {
      const char* v = next("--class-size");
      if (!v) return false;
      opt.schedule.class_size = static_cast<std::uint32_t>(std::stoul(v));
    } else if (arg == "--overlap") {
      const char* v = next("--overlap");
      if (!v) return false;
      opt.schedule.overlap = static_cast<std::uint32_t>(std::stoul(v));
    } else if (arg == "--schedule-seed") {
      const char* v = next("--schedule-seed");
      if (!v) return false;
      opt.schedule.seed = std::stoull(v);
    } else if (arg == "--pid") {
      const char* v = next("--pid");
      if (!v) return false;
      opt.pid = std::stol(v);
    } else if (arg == "--mode") {
      const char* v = next("--mode");
      if (!v) return false;
      opt.mode = v;
    } else if (arg == "--rate-kbps") {
      const char* v = next("--rate-kbps");
      if (!v) return false;
      opt.rate_kbps = std::stod(v);
    } else if (arg == "--slot-seconds") {
      const char* v = next("--slot-seconds");
      if (!v) return false;
      opt.slot_seconds = std::stod(v);
    } else if (arg == "--users") {
      const char* v = next("--users");
      if (!v) return false;
      opt.users = std::stoull(v);
    } else if (arg == "--events") {
      const char* v = next("--events");
      if (!v) return false;
      opt.events = std::stoull(v);
    } else if (arg == "--horizon") {
      const char* v = next("--horizon");
      if (!v) return false;
      opt.horizon = std::stoull(v);
    } else if (arg == "--mean-bytes") {
      const char* v = next("--mean-bytes");
      if (!v) return false;
      opt.mean_bytes = std::stoull(v);
    } else if (arg == "--file-bytes") {
      const char* v = next("--file-bytes");
      if (!v) return false;
      opt.file_bytes = std::stoull(v);
    } else if (arg == "--seed") {
      const char* v = next("--seed");
      if (!v) return false;
      opt.seed = std::stoull(v);
    } else if (arg == "--out") {
      const char* v = next("--out");
      if (!v) return false;
      opt.out_path = v;
    } else if (arg == "--dump") {
      opt.dump = true;
    } else if (arg == "--node") {
      const char* v = next("--node");
      if (!v) return false;
      opt.nodes.push_back(v);
    } else if (arg == "--host") {
      const char* v = next("--host");
      if (!v) return false;
      opt.host = v;
    } else if (arg == "--port") {
      const char* v = next("--port");
      if (!v) return false;
      opt.port = static_cast<std::uint16_t>(std::stoul(v));
    } else if (arg == "--ring-id") {
      const char* v = next("--ring-id");
      if (!v) return false;
      opt.ring_id = std::stoull(v, nullptr, 0);
    } else if (arg == "--peer-id") {
      const char* v = next("--peer-id");
      if (!v) return false;
      opt.peer_id = std::stoull(v);
    } else if (arg == "--provider-host") {
      const char* v = next("--provider-host");
      if (!v) return false;
      opt.provider_host = v;
    } else if (arg == "--provider-port") {
      const char* v = next("--provider-port");
      if (!v) return false;
      opt.provider_port = static_cast<std::uint16_t>(std::stoul(v));
    } else if (arg == "--ttl-ms") {
      const char* v = next("--ttl-ms");
      if (!v) return false;
      opt.ttl_ms = static_cast<std::uint32_t>(std::stoul(v));
    } else {
      opt.positional.push_back(arg);
    }
  }
  return true;
}

int cmd_encode(const Options& opt) {
  if (opt.positional.size() != 2 || opt.secret.empty()) return usage();
  const fs::path input = opt.positional[0];
  const fs::path out_dir = opt.positional[1];

  gf::FieldId field;
  if (!gf::field_from_bits(opt.field_bits, field)) {
    std::fprintf(stderr, "unsupported field GF(2^%u)\n", opt.field_bits);
    return 1;
  }
  std::vector<std::byte> data;
  if (!read_file(input, data) || data.empty()) {
    std::fprintf(stderr, "cannot read %s (or file empty)\n",
                 input.string().c_str());
    return 1;
  }
  std::error_code ec;
  fs::create_directories(out_dir, ec);

  if (opt.codec != "dense" && opt.codec != "chunked") {
    std::fprintf(stderr, "unknown --codec %s\n", opt.codec.c_str());
    return 1;
  }
  if (opt.codec == "chunked" && !opt.schedule.valid()) {
    std::fprintf(stderr,
                 "invalid schedule: need --class-size >= 2 and --overlap < "
                 "--class-size\n");
    return 1;
  }

  const coding::CodingParams params{field, opt.m};
  const coding::SecretKey secret = secret_from_passphrase(opt.secret);
  // Both encoders share one deterministic interface; only construction and
  // the class geometry differ.
  std::optional<coding::FileEncoder> dense;
  std::optional<coding::chunked::Encoder> chunked;
  if (opt.codec == "chunked")
    chunked.emplace(secret, /*file_id=*/1, data, params, opt.schedule);
  else
    dense.emplace(secret, /*file_id=*/1, data, params);
  const std::size_t k = chunked ? chunked->k() : dense->k();
  const std::size_t count = opt.messages ? opt.messages : k;
  const auto messages =
      chunked ? chunked->generate(count) : dense->generate(count);
  const coding::FileInfo& info = chunked ? chunked->info() : dense->info();
  for (const auto& msg : messages) {
    const fs::path path =
        out_dir / ("msg_" + std::to_string(msg.message_id) + ".bin");
    if (!write_file(path, p2p::wire::encode(msg))) {
      std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
      return 1;
    }
  }
  const fs::path info_path = out_dir / "info.bin";
  if (!write_file(info_path, p2p::wire::encode(info))) {
    std::fprintf(stderr, "cannot write %s\n", info_path.string().c_str());
    return 1;
  }
  std::printf("encoded %zu bytes: k=%zu over %s, m=%zu, codec=%s -> %zu "
              "messages of %zu bytes + info.bin (%zu digest bytes)\n",
              data.size(), k, std::string(gf::field_name(field)).c_str(),
              opt.m, coding::to_string(info.codec), messages.size(),
              messages[0].wire_size(), info.digest_bytes());
  return 0;
}

int cmd_decode(const Options& opt) {
  if (opt.positional.size() < 3 || opt.secret.empty()) return usage();
  const fs::path info_path = opt.positional[0];
  const fs::path out_path = opt.positional[1];

  std::vector<std::byte> info_bytes;
  if (!read_file(info_path, info_bytes)) {
    std::fprintf(stderr, "cannot read %s\n", info_path.string().c_str());
    return 1;
  }
  const auto info = p2p::wire::decode_file_info(info_bytes);
  if (!info) {
    std::fprintf(stderr, "%s is not a valid info.bin\n",
                 info_path.string().c_str());
    return 1;
  }

  coding::CodecDecoder decoder(secret_from_passphrase(opt.secret), *info);
  std::size_t rejected = 0;
  for (std::size_t i = 2; i < opt.positional.size() && !decoder.complete();
       ++i) {
    std::vector<std::byte> frame;
    if (!read_file(opt.positional[i], frame)) {
      std::fprintf(stderr, "cannot read %s\n", opt.positional[i].c_str());
      return 1;
    }
    const auto msg = p2p::wire::decode_coded_message(frame);
    if (!msg) {
      std::fprintf(stderr, "skipping malformed %s\n",
                   opt.positional[i].c_str());
      ++rejected;
      continue;
    }
    if (decoder.add(*msg) == coding::AddResult::bad_digest) {
      std::fprintf(stderr, "rejecting forged/corrupt %s\n",
                   opt.positional[i].c_str());
      ++rejected;
    }
  }
  if (!decoder.complete()) {
    std::fprintf(stderr,
                 "not enough innovative messages: have rank %zu, need %zu\n",
                 decoder.rank(), decoder.k());
    return 1;
  }
  const auto data = decoder.reconstruct();
  if (crypto::Md5::hash(std::span<const std::byte>(data)) !=
      info->content_digest) {
    std::fprintf(stderr, "content digest mismatch (wrong secret?)\n");
    return 1;
  }
  if (!write_file(out_path, data)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.string().c_str());
    return 1;
  }
  std::printf("decoded %zu bytes from %zu messages (%zu rejected); content "
              "digest verified\n",
              data.size(), decoder.accepted(), rejected);
  return 0;
}

int cmd_info(const Options& opt) {
  if (opt.positional.size() != 1) return usage();
  std::vector<std::byte> info_bytes;
  if (!read_file(opt.positional[0], info_bytes)) {
    std::fprintf(stderr, "cannot read %s\n", opt.positional[0].c_str());
    return 1;
  }
  const auto info = p2p::wire::decode_file_info(info_bytes);
  if (!info) {
    std::fprintf(stderr, "not a valid info.bin\n");
    return 1;
  }
  std::printf("file id        : %llu\n",
              static_cast<unsigned long long>(info->file_id));
  std::printf("original bytes : %llu\n",
              static_cast<unsigned long long>(info->original_bytes));
  std::printf("field          : %s\n",
              std::string(gf::field_name(info->params.field)).c_str());
  std::printf("m (symbols/msg): %zu\n", info->params.m);
  std::printf("k (msgs needed): %zu\n", info->k);
  std::printf("codec          : %s\n", coding::to_string(info->codec));
  if (info->codec == coding::CodecKind::chunked) {
    const coding::chunked::ClassMap map(info->k, info->schedule);
    std::printf("class schedule : size=%u overlap=%u seed=%llu -> %zu "
                "classes\n",
                info->schedule.class_size, info->schedule.overlap,
                static_cast<unsigned long long>(info->schedule.seed),
                map.classes());
  }
  std::printf("message bytes  : %zu\n", info->params.message_bytes());
  std::printf("known digests  : %zu (%zu bytes)\n",
              info->message_digests.size(), info->digest_bytes());
  std::printf("content md5    : %s\n",
              crypto::to_hex(info->content_digest).c_str());
  return 0;
}

// ------------------------------------------------------------------ stats
//
// The obs JSON exporter deliberately writes one sample object per line, so
// this parser needs nothing beyond string search: section headers name the
// array, every '{'-led line inside it is one sample.

std::string json_str_field(const std::string& line, const char* key) {
  const std::string k = std::string("\"") + key + "\":\"";
  const auto pos = line.find(k);
  if (pos == std::string::npos) return {};
  std::string out;
  for (std::size_t i = pos + k.size(); i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      out += line[++i];
      continue;
    }
    if (line[i] == '"') break;
    out += line[i];
  }
  return out;
}

double json_num_field(const std::string& line, const char* key) {
  const std::string k = std::string("\"") + key + "\":";
  const auto pos = line.find(k);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + pos + k.size(), nullptr);
}

/// "labels":{"peer":"0","user":"1"} -> {peer=0,user=1} ("" if none).
std::string pretty_labels(const std::string& line) {
  const auto pos = line.find("\"labels\":{");
  if (pos == std::string::npos) return {};
  const auto start = pos + 10;
  const auto end = line.find('}', start);
  if (end == std::string::npos || end == start) return {};
  std::string out = "{";
  for (std::size_t i = start; i < end; ++i) {
    const char c = line[i];
    if (c == '"') continue;
    out += (c == ':') ? '=' : c;
  }
  out += '}';
  return out;
}

int cmd_stats(const Options& opt) {
  if (opt.positional.size() != 1) return usage();
  const fs::path path = opt.positional[0];

  if (opt.pid > 0) {
#ifndef _WIN32
    std::error_code ec;
    const auto before = fs::exists(path, ec)
                            ? fs::last_write_time(path, ec)
                            : fs::file_time_type::min();
    if (kill(static_cast<pid_t>(opt.pid), SIGUSR1) != 0) {
      std::fprintf(stderr, "cannot signal pid %ld: %s\n", opt.pid,
                   std::strerror(errno));
      return 1;
    }
    // The server dumps from its accept loop (50ms wakeups); give it up to
    // two seconds to rewrite the file before reading a stale one.
    for (int i = 0; i < 40; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const auto now = fs::exists(path, ec) ? fs::last_write_time(path, ec)
                                            : fs::file_time_type::min();
      if (now != before) break;
    }
#else
    std::fprintf(stderr, "--pid is not supported on this platform\n");
    return 1;
#endif
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.string().c_str());
    return 1;
  }

  enum class Section { none, counters, gauges, histograms, spans };
  Section section = Section::none;
  bool printed_header = false;
  struct SpanAgg {
    std::size_t count = 0;
    double total_ns = 0.0;
  };
  std::map<std::string, SpanAgg> spans;
  std::uint64_t spans_pushed = 0;
  std::size_t spans_sampled = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"counters\": [") != std::string::npos) {
      section = Section::counters;
      printed_header = false;
      continue;
    }
    if (line.find("\"gauges\": [") != std::string::npos) {
      section = Section::gauges;
      printed_header = false;
      continue;
    }
    if (line.find("\"histograms\": [") != std::string::npos) {
      section = Section::histograms;
      printed_header = false;
      continue;
    }
    if (line.find("\"spans\": [") != std::string::npos) {
      section = Section::spans;
      continue;
    }
    if (line.find("\"spans_pushed\":") != std::string::npos) {
      spans_pushed =
          static_cast<std::uint64_t>(json_num_field(line, "spans_pushed"));
      continue;
    }
    if (line.empty() || line[0] != '{') continue;
    if (line.find("\"name\":") == std::string::npos) continue;
    const std::string series =
        json_str_field(line, "name") + pretty_labels(line);
    switch (section) {
      case Section::counters:
      case Section::gauges: {
        if (!printed_header) {
          std::printf("== %s ==\n",
                      section == Section::counters ? "counters" : "gauges");
          printed_header = true;
        }
        std::printf("%-58s %.10g\n", series.c_str(),
                    json_num_field(line, "value"));
        break;
      }
      case Section::histograms: {
        if (!printed_header) {
          std::printf("== histograms ==\n");
          printed_header = true;
        }
        std::printf(
            "%-58s count=%.0f mean=%.0f p50=%.0f p95=%.0f p99=%.0f "
            "max=%.0f\n",
            series.c_str(), json_num_field(line, "count"),
            json_num_field(line, "mean"), json_num_field(line, "p50"),
            json_num_field(line, "p95"), json_num_field(line, "p99"),
            json_num_field(line, "max"));
        break;
      }
      case Section::spans: {
        SpanAgg& agg = spans[json_str_field(line, "name")];
        ++agg.count;
        agg.total_ns += json_num_field(line, "duration_ns");
        ++spans_sampled;
        break;
      }
      case Section::none:
        break;
    }
  }
  if (!spans.empty() || spans_pushed > 0) {
    std::printf("== spans == (%zu sampled of %llu pushed)\n", spans_sampled,
                static_cast<unsigned long long>(spans_pushed));
    for (const auto& [name, agg] : spans)
      std::printf("%-58s count=%zu total_ms=%.3f\n", name.c_str(), agg.count,
                  agg.total_ns / 1e6);
  }
  return 0;
}

// ----------------------------------------------------------------- replay

std::optional<sim::WorkloadTrace> replay_trace(const Options& opt,
                                               const std::string& source) {
  if (source == "poisson") {
    sim::PoissonConfig config;
    config.users = opt.users;
    config.horizon = opt.horizon;
    config.mean_bytes = opt.mean_bytes;
    config.seed = opt.seed;
    return sim::poisson_trace(config);
  }
  if (source == "zipf") {
    sim::ZipfConfig config;
    config.users = opt.users;
    config.horizon = opt.horizon;
    config.events = opt.events;
    config.mean_bytes = opt.mean_bytes;
    config.seed = opt.seed;
    return sim::zipf_trace(config);
  }
  if (source == "flash") {
    sim::FlashCrowdConfig config;
    config.users = opt.users;
    config.horizon = opt.horizon;
    config.mean_bytes = opt.mean_bytes;
    config.seed = opt.seed;
    return sim::flash_crowd_trace(config);
  }
  if (source == "diurnal") {
    sim::DiurnalConfig config;
    config.users = opt.users;
    config.horizon = opt.horizon;
    config.mean_bytes = opt.mean_bytes;
    config.seed = opt.seed;
    return sim::diurnal_trace(config);
  }
  std::string error;
  sim::DxtStats stats;
  auto trace =
      sim::load_dxt_file(source, opt.slot_seconds, &error, &stats);
  if (!trace) {
    std::fprintf(stderr, "cannot import %s: %s\n", source.c_str(),
                 error.c_str());
    return std::nullopt;
  }
  std::fprintf(stderr,
               "imported %zu events from %s (%zu zero-length dropped%s)\n",
               stats.events, source.c_str(), stats.skipped_zero,
               stats.reordered ? ", input reordered" : "");
  return trace;
}

int cmd_replay(const Options& opt) {
  if (opt.positional.size() != 1) return usage();
  const auto trace = replay_trace(opt, opt.positional[0]);
  if (!trace) return 1;
  if (opt.dump) {
    std::fputs(sim::to_text(*trace).c_str(), stdout);
    return 0;
  }
  if (opt.mode != "sim" && opt.mode != "live" && opt.mode != "both") {
    std::fprintf(stderr, "unknown --mode %s\n", opt.mode.c_str());
    return usage();
  }

  // 1 KiB coded messages keep per-file decode cost trivial at replay sizes.
  const coding::CodingParams params{gf::FieldId::gf2_32, 256};
  coding::FileInfo shape;
  shape.original_bytes = opt.file_bytes;
  shape.params = params;
  shape.k = coding::chunks_for_bytes(opt.file_bytes, params);
  const double overhead = net::wire_overhead_factor(shape);

  std::optional<sim::ReplayReport> sim_report;
  std::optional<sim::ReplayReport> live_report;
  if (opt.mode == "sim" || opt.mode == "both") {
    sim::SimReplayConfig config;
    config.rate_kbps = opt.rate_kbps;
    config.slot_seconds = opt.slot_seconds;
    config.quantize_bytes = opt.file_bytes;
    config.wire_overhead = overhead;
    sim_report = sim::replay_sim(*trace, config);
  }
  if (opt.mode == "live" || opt.mode == "both") {
    net::LiveReplayConfig config;
    config.rate_kbps = opt.rate_kbps;
    config.slot_seconds = opt.slot_seconds;
    config.rng_seed = opt.seed;
    live_report = net::replay_live(*trace, opt.file_bytes, params, config);
  }

  std::string body;
  int status = 0;
  if (opt.mode == "both") {
    std::string why;
    const bool agrees = sim::replay_agrees(*sim_report, *live_report,
                                           sim::AgreementOptions{}, &why);
    std::ostringstream doc;
    doc << "{\n\"sim\": " << sim::to_json(*sim_report);
    doc << ",\n\"live\": " << sim::to_json(*live_report);
    doc << ",\n\"agrees\": " << (agrees ? "true" : "false");
    doc << ",\n\"why\": \"" << why << "\"\n}\n";
    body = doc.str();
    if (!agrees) {
      std::fprintf(stderr, "sim and live disagree: %s\n", why.c_str());
      status = 1;
    }
  } else {
    body = sim::to_json(sim_report ? *sim_report : *live_report);
  }

  if (opt.out_path.empty()) {
    std::fputs(body.c_str(), stdout);
  } else {
    std::ofstream out(opt.out_path, std::ios::trunc);
    out << body;
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", opt.out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", opt.out_path.c_str());
  }
  return status;
}

std::optional<disco::wire::Member> parse_member(const std::string& text) {
  const auto colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size())
    return std::nullopt;
  disco::wire::Member member;
  member.host = text.substr(0, colon);
  try {
    member.port =
        static_cast<std::uint16_t>(std::stoul(text.substr(colon + 1)));
  } catch (const std::exception&) {
    return std::nullopt;
  }
  return member.port != 0 ? std::optional(member) : std::nullopt;
}

std::atomic<bool> g_disco_stop{false};

// disco join: run a discovery node in the foreground.  It keeps serving
// lookups/announces/gossip until SIGINT/SIGTERM; a federated deployment
// runs one of these beside each serving process and points the server's
// Config::discovery hook at it (in-process) or at this node's port.
int cmd_disco_join(const Options& opt,
                   std::vector<disco::wire::Member> seeds) {
  disco::NodeConfig config;
  config.host = opt.host;
  config.port = opt.port;
  config.ring_id = opt.ring_id;
  config.provider_ttl_ms = opt.ttl_ms;
  config.seeds = std::move(seeds);
  disco::DiscoveryNode node(std::move(config));
  if (!node.start()) {
    std::fprintf(stderr, "cannot bind %s:%u\n", opt.host.c_str(), opt.port);
    return 1;
  }
  std::signal(SIGINT, [](int) { g_disco_stop = true; });
  std::signal(SIGTERM, [](int) { g_disco_stop = true; });
  std::printf("disco node %016llx serving on %s:%u (ctrl-c to stop)\n",
              static_cast<unsigned long long>(node.ring_id()),
              opt.host.c_str(), node.port());
  while (!g_disco_stop)
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  node.stop();
  const auto status = node.status();
  std::printf("stopped: %zu members, %u records, %llu gossip rounds, "
              "%llu lookups served\n",
              status.members.size(), status.provider_records,
              static_cast<unsigned long long>(status.gossip_rounds),
              static_cast<unsigned long long>(status.lookups_served));
  return 0;
}

int cmd_disco(const Options& opt) {
  if (opt.positional.empty()) return usage();
  const std::string& sub = opt.positional[0];

  std::vector<disco::wire::Member> seeds;
  for (const std::string& text : opt.nodes) {
    const auto member = parse_member(text);
    if (!member) {
      std::fprintf(stderr, "bad --node %s (want host:port)\n", text.c_str());
      return 2;
    }
    seeds.push_back(*member);
  }

  if (sub == "join") return cmd_disco_join(opt, std::move(seeds));

  if (seeds.empty()) {
    std::fprintf(stderr, "disco %s needs at least one --node host:port\n",
                 sub.c_str());
    return 2;
  }
  disco::ClientConfig client_config;
  client_config.seeds = seeds;
  const disco::Client client(client_config);

  if (sub == "announce") {
    if (opt.positional.size() != 2 || opt.provider_port == 0) return usage();
    const std::uint64_t file_id = std::stoull(opt.positional[1]);
    disco::wire::Provider provider;
    provider.peer_id = opt.peer_id;
    provider.host = opt.provider_host;
    provider.port = opt.provider_port;
    if (!client.announce(file_id, provider, opt.ttl_ms)) {
      std::fprintf(stderr, "announce failed: no owner reachable\n");
      return 1;
    }
    std::printf("announced file %llu -> %s:%u (peer %llu, ttl %u ms)\n",
                static_cast<unsigned long long>(file_id),
                provider.host.c_str(), provider.port,
                static_cast<unsigned long long>(provider.peer_id),
                opt.ttl_ms);
    return 0;
  }

  if (sub == "resolve") {
    if (opt.positional.size() != 2) return usage();
    const std::uint64_t file_id = std::stoull(opt.positional[1]);
    int hops = 0;
    const auto providers = client.resolve(file_id, &hops);
    if (providers.empty()) {
      std::fprintf(stderr, "no providers for file %llu (%d hops)\n",
                   static_cast<unsigned long long>(file_id), hops);
      return 1;
    }
    for (const auto& provider : providers)
      std::printf("%s:%u peer=%llu\n", provider.host.c_str(), provider.port,
                  static_cast<unsigned long long>(provider.peer_id));
    std::printf("%zu provider(s), %d routing hop(s)\n", providers.size(),
                hops);
    return 0;
  }

  if (sub == "status") {
    int exit_code = 0;
    for (const auto& seed : seeds) {
      const auto status = client.status(seed);
      if (!status) {
        std::fprintf(stderr, "%s:%u unreachable\n", seed.host.c_str(),
                     seed.port);
        exit_code = 1;
        continue;
      }
      std::printf("node %016llx at %s:%u\n",
                  static_cast<unsigned long long>(status->self.id),
                  status->self.host.c_str(), status->self.port);
      std::printf("  members         : %zu\n", status->members.size());
      for (const auto& member : status->members)
        std::printf("    %016llx %s:%u\n",
                    static_cast<unsigned long long>(member.id),
                    member.host.c_str(), member.port);
      std::printf("  provider records: %u\n", status->provider_records);
      std::printf("  ledger entries  : %u\n", status->ledger_entries);
      std::printf("  gossip rounds   : %llu\n",
                  static_cast<unsigned long long>(status->gossip_rounds));
      std::printf("  lookups served  : %llu\n",
                  static_cast<unsigned long long>(status->lookups_served));
    }
    return exit_code;
  }

  return usage();
}

int cmd_caps() {
  const gf::CpuFeatures feat = gf::cpu_features();
  std::printf("fairshare %s\n", FAIRSHARE_VERSION);
  std::printf("cpu features   : ssse3=%s avx2=%s gfni=%s avx512f=%s "
              "avx512bw=%s\n",
              feat.ssse3 ? "yes" : "no", feat.avx2 ? "yes" : "no",
              feat.gfni ? "yes" : "no", feat.avx512f ? "yes" : "no",
              feat.avx512bw ? "yes" : "no");
  std::printf("kernel tier cap: %s\n",
              gf::kernel_tier_cap() ? gf::kernel_tier_cap()
                                    : "none (FAIRSHARE_KERNEL_CAP unset)");
  std::printf("scalar forced  : %s\n", gf::scalar_kernels_forced()
                                           ? "yes (env/CMake pin)"
                                           : "no");
  std::printf("row kernels    :\n");
  for (const gf::FieldId id : gf::kAllFields)
    std::printf("  %-9s -> %s\n", std::string(gf::field_name(id)).c_str(),
                gf::field_view(id).kernel);
  std::printf("codecs         : dense chunked (chunked default geometry: "
              "class-size=%u overlap=%u)\n",
              coding::ChunkedSchedule{}.class_size,
              coding::ChunkedSchedule{}.overlap);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Options opt;
  if (!parse(argc, argv, opt)) return 2;
  const std::string cmd = argv[1];
  if (cmd == "encode") return cmd_encode(opt);
  if (cmd == "decode") return cmd_decode(opt);
  if (cmd == "info") return cmd_info(opt);
  if (cmd == "caps" || cmd == "version") return cmd_caps();
  if (cmd == "stats") return cmd_stats(opt);
  if (cmd == "replay") return cmd_replay(opt);
  if (cmd == "disco") return cmd_disco(opt);
  return usage();
}
