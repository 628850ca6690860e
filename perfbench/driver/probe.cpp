#include "probe.hpp"

#include "net/socket.hpp"
#include "p2p/wire.hpp"

namespace perfbench {

namespace {

class ProbeTransport final : public fs::net::Transport {
 public:
  explicit ProbeTransport(DownloadProbe& probe)
      : probe_(probe), span_(probe.ring, "net.session", probe.parent_span) {
    stats_.dial_start_ns = fs::obs::monotonic_ns();
  }

  ~ProbeTransport() override {
    inner_.reset();  // close before the session span ends
    span_.end();
    std::lock_guard<std::mutex> lock(probe_.mutex);
    probe_.sessions.push_back(stats_);
  }

  /// Connect through the probe; false when the peer refused.
  bool dial(const fs::net::PeerEndpoint& peer) {
    fs::obs::TraceSpan span(probe_.ring, "net.dial", span_.id());
    auto socket = fs::net::Socket::connect_to(peer.host, peer.port);
    if (!socket) return false;
    inner_ = std::make_unique<fs::net::Socket>(std::move(*socket));
    return true;
  }

  std::optional<std::vector<std::byte>> read_frame(
      std::size_t max_len) override {
    fs::obs::TraceSpan span(probe_.ring, "net.recv", span_.id());
    const std::uint64_t t0 = fs::obs::monotonic_ns();
    auto frame = inner_->read_frame(max_len);
    const std::uint64_t t1 = fs::obs::monotonic_ns();
    span.end();
    stats_.recv_wait_ns += t1 - t0;
    if (!frame) return frame;
    ++stats_.frames;
    stats_.wire_bytes += frame->size() + 4;
    stats_.last_frame_ns = t1;
    const bool coded =
        !frame->empty() &&
        (*frame)[0] ==
            std::byte{static_cast<std::uint8_t>(
                fs::p2p::wire::MessageType::coded_message)};
    if (coded && stats_.first_coded_ns == 0) stats_.first_coded_ns = t1;
    if (coded && probe_.capture) {
      std::lock_guard<std::mutex> lock(probe_.mutex);
      probe_.frames.push_back(*frame);
    }
    return frame;
  }

  // Everything else forwards unchanged.
  bool write_all(std::span<const std::byte> data) override {
    return inner_->write_all(data);
  }
  bool read_exact(std::span<std::byte> out) override {
    return inner_->read_exact(out);
  }
  bool write_frame(std::span<const std::byte> frame) override {
    return inner_->write_frame(frame);
  }
  fs::net::TryWrite try_write_frame(std::span<const std::byte> frame) override {
    return inner_->try_write_frame(frame);
  }
  fs::net::TryWrite try_write_frame_ext(
      std::span<const std::byte> head,
      std::span<const std::byte> ext) override {
    return inner_->try_write_frame_ext(head, ext);
  }
  fs::net::IoStatus try_flush() override { return inner_->try_flush(); }
  fs::net::TryRead try_read_frame(std::size_t max_len) override {
    return inner_->try_read_frame(max_len);
  }
  bool want_write() const override { return inner_->want_write(); }
  bool want_read() const override { return inner_->want_read(); }
  bool set_recv_timeout(int ms) override { return inner_->set_recv_timeout(ms); }
  bool set_send_timeout(int ms) override { return inner_->set_send_timeout(ms); }
  bool timed_out() const override { return inner_->timed_out(); }
  void clear_timed_out() override { inner_->clear_timed_out(); }
  bool readable(int ms) override { return inner_->readable(ms); }
  void close() override { inner_->close(); }
  bool valid() const override { return inner_ && inner_->valid(); }

 private:
  DownloadProbe& probe_;
  fs::obs::TraceSpan span_;
  SessionProbe stats_;
  std::unique_ptr<fs::net::Transport> inner_;
};

}  // namespace

std::function<std::unique_ptr<fs::net::Transport>(const fs::net::PeerEndpoint&)>
probing_factory(DownloadProbe& probe) {
  return [&probe](const fs::net::PeerEndpoint& peer)
             -> std::unique_ptr<fs::net::Transport> {
    auto transport = std::make_unique<ProbeTransport>(probe);
    if (!transport->dial(peer)) return nullptr;
    return transport;
  };
}

}  // namespace perfbench
