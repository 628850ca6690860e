// Client-side net probe for the traced run: a forwarding net::Transport
// installed through DownloadOptions::transport_factory.  It records one
// `net.session` span per connection (dial to close) with `net.dial` and
// one `net.recv` span per read_frame call as children, counts frames and
// wire bytes, and can capture the coded frames in arrival order so the
// coding layer can be replayed through its public calls afterwards.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "net/download_client.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace fs = fairshare;

/// What one connection saw.
struct SessionProbe {
  std::uint64_t dial_start_ns = 0;
  std::uint64_t first_coded_ns = 0;  ///< 0 = no coded frame arrived
  std::uint64_t last_frame_ns = 0;   ///< end of the last successful read
  std::uint64_t recv_wait_ns = 0;    ///< inside read_frame, all calls
  std::uint64_t frames = 0;
  std::uint64_t wire_bytes = 0;      ///< frames + 4-byte length prefixes
};

/// Everything the probes of one download collect.  Sessions run on the
/// download's worker threads, so appends take `mutex`.
struct DownloadProbe {
  fs::obs::SpanRing* ring = nullptr;
  std::uint64_t parent_span = 0;  ///< the download_file call's span
  bool capture = false;           ///< keep coded frames for replay

  std::mutex mutex;
  std::vector<SessionProbe> sessions;
  std::vector<std::vector<std::byte>> frames;  ///< coded, arrival order
};

/// A transport_factory that dials over TCP through a probe.
std::function<std::unique_ptr<fs::net::Transport>(const fs::net::PeerEndpoint&)>
probing_factory(DownloadProbe& probe);

}  // namespace perfbench
