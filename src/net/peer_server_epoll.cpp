// PeerServer's serving core: every session of every server runs here.
//
// N net::EventLoop reactors own every session fd; each accepted
// connection becomes a Session state machine (hello -> response ->
// request -> streaming -> done) driven entirely by readiness callbacks
// and timer-wheel entries — no thread ever blocks on a socket:
//
//  * the listener(s) are non-blocking and SO_REUSEPORT-sharded across
//    loops when Config::num_loops > 1;
//  * outbound frames go through the non-blocking Transport seam
//    (try_write_frame_ext's accepted-at-most-once contract keeps pacing
//    byte accounting exactly-once); coded messages are sent zero-copy —
//    21 framing bytes into an arena-recycled head buffer, the payload
//    referenced in the immutable MessageStore and gathered onto the wire
//    by sendmsg — so serving never copies a payload;
//  * the Eq. (2) pacing tick (pacing_tick_locked) is a periodic timer on
//    loop 0, which then posts a pump to every loop so sessions spend
//    their fresh budgets;
//  * fault-injected delays (FaultyTransport) surface as retry_after()
//    deadlines: the fd leaves the interest set and a timer-wheel entry
//    owns the wakeup, so a delayed frame never busy-spins the loop;
//  * handshake deadlines and solo pacing (unpaced server honouring a
//    client's advertised cap) are plain timer-wheel entries too.
//
// Everything mutable on a session is loop-thread-only except the shared
// pacing state (SessionState, the per-user tables), which stays under
// pacing_mutex_: every loop and the public accessors share it.
#include "net/peer_server.hpp"

#include <sys/epoll.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "crypto/chacha20.hpp"
#include "net/event_loop.hpp"
#include "obs/export.hpp"
#include "obs/signal_dump.hpp"
#include "obs/trace.hpp"
#include "p2p/wire.hpp"

namespace fairshare::net {

struct PeerServer::ReactorState {
  struct PerLoop;

  /// One connection as a non-blocking state machine.  Loop-thread-only.
  struct Session {
    enum class Phase { hello, response, request, streaming, done };
    enum class Staged { none, ctrl, data };

    std::uint64_t salt = 0;
    int fd = -1;
    std::shared_ptr<Transport> transport;
    Phase phase = Phase::hello;
    PerLoop* pl = nullptr;

    // Handshake state (the responder borrows the rng; both live here).
    std::unique_ptr<crypto::ChaCha20> rng;
    std::optional<crypto::AuthResponder> responder;
    std::uint64_t authed_user = 0;
    bool have_authed_user = false;

    // Streaming state.
    std::shared_ptr<SessionState> st;  // shared with pacing (pacing_mutex_)
    std::uint64_t file_id = 0;
    std::size_t next_msg = 0;
    std::size_t msg_count = 0;
    double solo_rate = 0.0;  ///< unpaced client cap (kbps); 0 = none
    bool paced = false;

    // The single in-flight outbound frame not yet accepted by the
    // transport (ctrl = challenge, unbudgeted; data = coded message), as
    // the head ++ ext pair of try_write_frame_ext: head is a small
    // arena-recycled buffer (a whole ctrl frame, or the 21 framing bytes
    // of a coded message) and ext references the payload inside the
    // server's immutable MessageStore — no payload copy is ever made.
    std::vector<std::byte> staged_head;
    std::span<const std::byte> staged_ext;
    Staged staged_kind = Staged::none;

    EventLoop::TimerId handshake_timer = 0;
    EventLoop::TimerId retry_timer = 0;  ///< fault release / solo spacing
    bool solo_wait = false;   ///< inter-frame gap of a solo-paced stream
    bool registered = false;  ///< fd currently in the epoll set
    std::uint32_t interest = 0;
    std::optional<obs::TraceSpan> span;
  };

  struct PerLoop {
    std::unique_ptr<EventLoop> loop;
    Listener listener;
    std::thread thread;
    std::unordered_map<std::uint64_t, std::shared_ptr<Session>> sessions;

    /// Arena of reusable send buffers (loop-thread-only): frame heads are
    /// borrowed per encode and returned once the transport accepts them,
    /// so a steady paced stream allocates nothing per message.
    std::vector<std::vector<std::byte>> send_arena;
    static constexpr std::size_t kArenaCap = 64;

    std::vector<std::byte> arena_get() {
      if (send_arena.empty()) return {};
      auto buf = std::move(send_arena.back());
      send_arena.pop_back();
      buf.clear();
      return buf;
    }
    void arena_put(std::vector<std::byte>&& buf) {
      if (buf.capacity() > 0 && send_arena.size() < kArenaCap)
        send_arena.push_back(std::move(buf));
    }
  };

  /// Frames one pump may send before yielding, so hundreds of sessions
  /// sharing a loop each get timely slices.
  static constexpr int kFramesPerPass = 64;

  explicit ReactorState(PeerServer* server) : srv(server) {}

  PeerServer* srv;
  std::vector<std::unique_ptr<PerLoop>> loops;

  void accept_ready(PerLoop& pl);
  void pump(const std::shared_ptr<Session>& s);
  bool flush_staged(const std::shared_ptr<Session>& s);
  bool pump_read(const std::shared_ptr<Session>& s);
  bool handle_frame(const std::shared_ptr<Session>& s,
                    std::vector<std::byte> frame);
  bool pump_stream(const std::shared_ptr<Session>& s);
  void account_sent(const std::shared_ptr<Session>& s, std::size_t bytes);
  void update_interest(const std::shared_ptr<Session>& s);
  void arm_retry(const std::shared_ptr<Session>& s,
                 std::chrono::steady_clock::time_point release);
  void arm_retry_ns(const std::shared_ptr<Session>& s,
                    std::uint64_t delay_ns);
  void finish(const std::shared_ptr<Session>& s, bool completed);
  void pump_streaming(PerLoop& pl);
};

void PeerServer::ReactorState::accept_ready(PerLoop& pl) {
  for (;;) {
    auto client = pl.listener.accept(/*timeout_ms=*/0);
    if (!client) return;
    if (!srv->running_) return;
    if (srv->active_sessions_.load() >= srv->config_.max_sessions) {
      ++srv->sessions_rejected_;
      srv->m_sessions_rejected_->add(1);
      continue;  // Socket destructor closes the connection
    }
    const std::size_t now_active = ++srv->active_sessions_;
    srv->m_active_sessions_->add(1.0);
    std::size_t peak = srv->peak_sessions_.load();
    while (now_active > peak &&
           !srv->peak_sessions_.compare_exchange_weak(peak, now_active)) {
    }
    srv->m_peak_sessions_->set(
        static_cast<double>(srv->peak_sessions_.load()));

    const std::uint64_t salt = ++srv->session_counter_;
    client->set_nonblocking(true);
    const int fd = client->native_handle();
    std::unique_ptr<Transport> transport =
        std::make_unique<Socket>(std::move(*client));
    if (srv->config_.transport_wrapper)
      transport = srv->config_.transport_wrapper(std::move(transport));

    auto s = std::make_shared<Session>();
    s->salt = salt;
    s->fd = fd;
    s->transport = std::move(transport);
    s->phase = srv->config_.require_auth ? Session::Phase::hello
                                         : Session::Phase::request;
    s->pl = &pl;
    s->span.emplace(&srv->registry_->spans(), "server.session");
    pl.sessions.emplace(salt, s);

    s->handshake_timer = pl.loop->add_timer_after(
        static_cast<std::uint64_t>(srv->config_.handshake_timeout_ms) *
            1'000'000ull,
        [this, s] {
          s->handshake_timer = 0;
          if (s->phase != Session::Phase::streaming &&
              s->phase != Session::Phase::done)
            finish(s, false);
        });
    s->registered = true;
    s->interest = EPOLLIN;
    pl.loop->add_fd(fd, EPOLLIN, [this, s](std::uint32_t) { pump(s); });
    // First pump: the wrapper may already refuse (zero reset budget) or
    // hold buffered input.
    pump(s);
  }
}

void PeerServer::ReactorState::pump(const std::shared_ptr<Session>& s) {
  if (s->phase == Session::Phase::done) return;
  if (!srv->running_) {
    finish(s, false);
    return;
  }
  if (!flush_staged(s)) return;
  if (!pump_read(s)) return;
  if (s->phase == Session::Phase::streaming && !pump_stream(s)) return;
  update_interest(s);
}

bool PeerServer::ReactorState::flush_staged(
    const std::shared_ptr<Session>& s) {
  if (s->transport->want_write()) {
    const IoStatus st = s->transport->try_flush();
    if (st == IoStatus::closed || st == IoStatus::error) {
      finish(s, false);
      return false;
    }
  }
  if (s->staged_kind != Session::Staged::none &&
      !s->transport->want_write()) {
    const TryWrite r =
        s->transport->try_write_frame_ext(s->staged_head, s->staged_ext);
    if (r.status == IoStatus::closed || r.status == IoStatus::error) {
      finish(s, false);
      return false;
    }
    if (r.accepted) {
      const std::size_t bytes = s->staged_head.size() + s->staged_ext.size();
      const bool was_data = s->staged_kind == Session::Staged::data;
      s->pl->arena_put(std::move(s->staged_head));
      s->staged_head.clear();
      s->staged_ext = {};
      s->staged_kind = Session::Staged::none;
      if (was_data) account_sent(s, bytes);
    } else if (const auto release = s->transport->retry_after()) {
      arm_retry(s, *release);
    }
  }
  return true;
}

bool PeerServer::ReactorState::pump_read(const std::shared_ptr<Session>& s) {
  for (int i = 0; i < 32; ++i) {
    TryRead r = s->transport->try_read_frame(PeerServer::kMaxClientFrame);
    if (r.status == IoStatus::blocked) {
      if (const auto release = s->transport->retry_after())
        arm_retry(s, *release);
      return true;
    }
    if (r.status != IoStatus::ok) {
      // EOF or a dead wrapper before the stream finished: the client left.
      finish(s, false);
      return false;
    }
    if (!handle_frame(s, std::move(r.frame))) return false;
  }
  // An inbound flood must not starve the other sessions: yield, requeue.
  auto self = s;
  s->pl->loop->post([this, self] { pump(self); });
  return true;
}

bool PeerServer::ReactorState::handle_frame(
    const std::shared_ptr<Session>& s, std::vector<std::byte> frame) {
  switch (s->phase) {
    case Session::Phase::hello: {
      const auto hello = p2p::wire::decode_auth_hello(frame);
      if (!hello || !srv->identity_) {
        finish(s, false);
        return false;
      }
      const auto user = srv->users_.find(hello->user_id);
      if (user == srv->users_.end()) {
        ++srv->auth_rejections_;
        srv->m_auth_rejections_->add(1);
        finish(s, false);
        return false;
      }
      s->rng = std::make_unique<crypto::ChaCha20>(
          PeerServer::seeded_rng(srv->config_.rng_seed, s->salt));
      s->responder.emplace(srv->config_.peer_id, *srv->identity_,
                           user->second, *s->rng);
      const auto challenge = s->responder->on_hello(*hello);
      s->authed_user = hello->user_id;
      s->have_authed_user = true;
      s->phase = Session::Phase::response;
      auto out = p2p::wire::encode(challenge);
      const TryWrite r = s->transport->try_write_frame_ext(out, {});
      if (r.status == IoStatus::closed || r.status == IoStatus::error) {
        finish(s, false);
        return false;
      }
      if (r.accepted) {
        s->pl->arena_put(std::move(out));
      } else {
        s->staged_head = std::move(out);
        s->staged_ext = {};
        s->staged_kind = Session::Staged::ctrl;
        if (const auto release = s->transport->retry_after())
          arm_retry(s, *release);
      }
      return true;
    }
    case Session::Phase::response: {
      const auto response = p2p::wire::decode_auth_response(frame);
      if (!response || !s->responder->on_response(*response)) {
        ++srv->auth_rejections_;
        srv->m_auth_rejections_->add(1);
        finish(s, false);
        return false;
      }
      s->phase = Session::Phase::request;
      return true;
    }
    case Session::Phase::request: {
      const auto request = p2p::wire::decode_file_request(frame);
      if (!request) {
        finish(s, false);
        return false;
      }
      // Untrusted wire input: a denormal/negative/non-finite cap must not
      // poison the pacing arithmetic or park the session in a near-endless
      // solo-pacing wait.  Sub-1-kbps caps mean "no cap".
      double client_cap = request->max_rate_kbps;
      if (!std::isfinite(client_cap) || client_cap < 1.0) client_cap = 0.0;
      const std::uint64_t user_id =
          s->have_authed_user ? s->authed_user : request->user_id;
      s->paced = srv->config_.rate_kbps > 0.0;
      bool slot_ok = false;
      {
        std::lock_guard<std::mutex> lock(srv->pacing_mutex_);
        const auto slot = srv->user_slot_locked(user_id);
        if (slot) {
          auto st = std::make_shared<SessionState>();
          st->user_id = user_id;
          st->user_slot = *slot;
          st->cap_kbps = client_cap;
          st->streaming = true;
          srv->sessions_.emplace(s->salt, st);
          s->st = std::move(st);
          slot_ok = true;
        }
      }
      if (!slot_ok) {  // ledger full: cannot account for this user
        finish(s, false);
        return false;
      }
      if (s->handshake_timer) {
        s->pl->loop->cancel_timer(s->handshake_timer);
        s->handshake_timer = 0;
      }
      s->phase = Session::Phase::streaming;
      s->file_id = request->file_id;
      s->msg_count = srv->store_.count(request->file_id);
      s->solo_rate = s->paced ? 0.0 : client_cap;
      return true;
    }
    case Session::Phase::streaming: {
      // Transmission "5": the user says stop as soon as it can decode.
      // Anything else inbound is ignored.
      if (p2p::wire::decode_stop_transmission(frame)) {
        finish(s, true);
        return false;
      }
      return true;
    }
    case Session::Phase::done:
      return false;
  }
  return false;
}

bool PeerServer::ReactorState::pump_stream(
    const std::shared_ptr<Session>& s) {
  int sent_this_pass = 0;
  while (s->phase == Session::Phase::streaming && srv->running_ &&
         s->staged_kind == Session::Staged::none && !s->solo_wait &&
         s->next_msg < s->msg_count) {
    if (s->transport->want_write()) {
      const IoStatus st = s->transport->try_flush();
      if (st == IoStatus::closed || st == IoStatus::error) {
        finish(s, false);
        return false;
      }
      if (st == IoStatus::blocked) break;  // EPOLLOUT resumes us
    }
    if (s->paced) {
      std::lock_guard<std::mutex> lock(srv->pacing_mutex_);
      // Debt model: any positive budget admits one frame; the overdraft
      // is repaid out of future grants, so frames larger than one
      // quantum's grant still flow at the allocated average rate.
      if (s->st->budget_bytes <= 0.0) break;  // next pacing tick resumes us
    }
    const coding::EncodedMessage& msg =
        srv->store_.at(s->file_id, s->next_msg);
    // Zero-copy handoff: only the 21 framing bytes are encoded (into an
    // arena-recycled buffer); the payload is referenced in place inside
    // the immutable store, which outlives the session — exactly the
    // lifetime try_write_frame_ext requires.
    std::vector<std::byte> head = s->pl->arena_get();
    const auto hdr = p2p::wire::encode_coded_message_header(msg);
    head.assign(hdr.begin(), hdr.end());
    const std::span<const std::byte> ext(msg.payload);
    const std::size_t bytes = head.size() + ext.size();
    const TryWrite r = s->transport->try_write_frame_ext(head, ext);
    if (r.status == IoStatus::closed || r.status == IoStatus::error) {
      finish(s, false);
      return false;
    }
    if (!r.accepted) {
      s->staged_head = std::move(head);
      s->staged_ext = ext;
      s->staged_kind = Session::Staged::data;
      if (const auto release = s->transport->retry_after())
        arm_retry(s, *release);
      break;
    }
    s->pl->arena_put(std::move(head));
    account_sent(s, bytes);
    if (++sent_this_pass >= kFramesPerPass) {
      auto self = s;
      s->pl->loop->post([this, self] { pump(self); });
      break;
    }
  }
  if (s->phase == Session::Phase::streaming && s->next_msg >= s->msg_count &&
      s->staged_kind == Session::Staged::none &&
      !s->transport->want_write()) {
    finish(s, true);  // whole store streamed and drained
    return false;
  }
  return true;
}

void PeerServer::ReactorState::account_sent(
    const std::shared_ptr<Session>& s, std::size_t bytes) {
  {
    std::lock_guard<std::mutex> lock(srv->pacing_mutex_);
    if (s->paced) {
      s->st->budget_bytes -= static_cast<double>(bytes);
      s->st->quantum_bytes += static_cast<double>(bytes);
    }
    srv->user_bytes_[s->st->user_slot] += bytes;
    srv->m_user_bytes_[s->st->user_slot]->add(bytes);
  }
  ++srv->messages_sent_;
  srv->m_messages_sent_->add(1);
  ++s->next_msg;
  if (s->solo_rate > 0.0) {
    // One frame per cap-derived interval (bounded so stop() stays prompt).
    const double ms = std::min(
        static_cast<double>(bytes) * 8.0 / s->solo_rate, 1000.0);
    s->solo_wait = true;
    arm_retry_ns(s, static_cast<std::uint64_t>(ms * 1e6));
  }
}

void PeerServer::ReactorState::update_interest(
    const std::shared_ptr<Session>& s) {
  if (s->phase == Session::Phase::done) return;
  // A time-gated transport (fault-injected delay) makes fd readiness
  // meaningless; with level-triggered epoll it would busy-spin the loop.
  // Deregister entirely and let the retry timer own the wakeup.
  if (s->transport->retry_after().has_value()) {
    if (s->registered) {
      s->pl->loop->remove_fd(s->fd);
      s->registered = false;
    }
    return;
  }
  std::uint32_t want = EPOLLIN;
  if (s->transport->want_write() ||
      s->staged_kind != Session::Staged::none)
    want |= EPOLLOUT;
  if (!s->registered) {
    s->registered = true;
    s->interest = want;
    auto self = s;
    s->pl->loop->add_fd(s->fd, want,
                        [this, self](std::uint32_t) { pump(self); });
  } else if (want != s->interest) {
    s->interest = want;
    s->pl->loop->modify_fd(s->fd, want);
  }
}

void PeerServer::ReactorState::arm_retry(
    const std::shared_ptr<Session>& s,
    std::chrono::steady_clock::time_point release) {
  const auto delay = release - std::chrono::steady_clock::now();
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(delay).count();
  // Half a millisecond of cushion: firing marginally early would find the
  // transport still gated and re-arm, wasting a wheel trip.
  arm_retry_ns(s, ns > 0 ? static_cast<std::uint64_t>(ns) + 500'000ull : 1);
}

void PeerServer::ReactorState::arm_retry_ns(
    const std::shared_ptr<Session>& s, std::uint64_t delay_ns) {
  if (s->retry_timer) return;  // one release timer at a time
  s->retry_timer = s->pl->loop->add_timer_after(delay_ns, [this, s] {
    s->retry_timer = 0;
    s->solo_wait = false;
    pump(s);
  });
}

void PeerServer::ReactorState::finish(const std::shared_ptr<Session>& s,
                                      bool completed) {
  if (s->phase == Session::Phase::done) return;
  s->phase = Session::Phase::done;
  if (s->handshake_timer) {
    s->pl->loop->cancel_timer(s->handshake_timer);
    s->handshake_timer = 0;
  }
  if (s->retry_timer) {
    s->pl->loop->cancel_timer(s->retry_timer);
    s->retry_timer = 0;
  }
  if (s->registered) {
    s->pl->loop->remove_fd(s->fd);
    s->registered = false;
  }
  if (s->st) {
    std::lock_guard<std::mutex> lock(srv->pacing_mutex_);
    srv->sessions_.erase(s->salt);
  }
  s->pl->arena_put(std::move(s->staged_head));
  s->transport->close();
  s->span.reset();
  if (completed) {
    ++srv->sessions_completed_;
    srv->m_sessions_completed_->add(1);
  }
  --srv->active_sessions_;
  srv->m_active_sessions_->add(-1.0);
  s->pl->sessions.erase(s->salt);
}

void PeerServer::ReactorState::pump_streaming(PerLoop& pl) {
  // Copy first: pump may finish (and erase) sessions.
  std::vector<std::shared_ptr<Session>> live;
  live.reserve(pl.sessions.size());
  for (const auto& [salt, s] : pl.sessions)
    if (s->phase == Session::Phase::streaming) live.push_back(s);
  for (const auto& s : live) pump(s);
}

bool PeerServer::reactor_start() {
  const std::size_t nloops = std::max<std::size_t>(1, config_.num_loops);
  auto rs = std::make_shared<ReactorState>(this);
  std::uint16_t port = config_.port;
  for (std::size_t i = 0; i < nloops; ++i) {
    auto pl = std::make_unique<ReactorState::PerLoop>();
    pl->loop = std::make_unique<EventLoop>(
        std::to_string(config_.peer_id) + "." + std::to_string(i),
        registry_);
    if (!pl->loop->valid()) return false;
    // All shards must carry SO_REUSEPORT; the first bind resolves port 0.
    auto listener = Listener::bind_local(port, /*reuse_port=*/nloops > 1);
    if (!listener) return false;
    pl->listener = std::move(*listener);
    if (i == 0) port = pl->listener.port();
    pl->listener.set_nonblocking(true);
    rs->loops.push_back(std::move(pl));
  }
  port_ = port;
  reactor_ = std::move(rs);
  ReactorState* r = reactor_.get();

  for (auto& plp : r->loops) {
    auto* pl = plp.get();
    pl->loop->post([r, pl] {
      pl->loop->add_fd(pl->listener.native_handle(), EPOLLIN,
                       [r, pl](std::uint32_t) { r->accept_ready(*pl); });
    });
  }

  // Loop 0 carries the shared timers: the Eq. (2) pacing tick (which then
  // pumps every loop so sessions spend their fresh budgets) and the
  // SIGUSR1 dump poll.
  EventLoop* loop0 = r->loops.front()->loop.get();
  if (config_.rate_kbps > 0.0) {
    const auto quantum_ns =
        static_cast<std::uint64_t>(config_.pacing_quantum_ms) * 1'000'000ull;
    loop0->post([this, r, loop0, quantum_ns] {
      loop0->add_periodic(quantum_ns, [this, r] {
        {
          std::lock_guard<std::mutex> lock(pacing_mutex_);
          pacing_tick_locked();
        }
        for (auto& plp : r->loops) {
          auto* pl = plp.get();
          pl->loop->post([r, pl] { r->pump_streaming(*pl); });
        }
      });
    });
  }
  if (!config_.stats_json_path.empty()) {
    loop0->post([this, loop0] {
      loop0->add_periodic(50'000'000ull, [this] {
        const std::uint64_t gen = obs::sigusr1_generation();
        if (gen != dump_generation_seen_) {
          dump_generation_seen_ = gen;
          obs::dump_json(*registry_, config_.stats_json_path);
        }
      });
    });
  }

  for (auto& plp : r->loops) {
    EventLoop* lp = plp->loop.get();
    plp->thread = std::thread([lp] { lp->run(); });
  }
  serving_threads_ = nloops;
  return true;
}

void PeerServer::reactor_stop() {
  if (!reactor_) return;
  ReactorState* r = reactor_.get();
  for (auto& plp : r->loops) {
    auto* pl = plp.get();
    // Posted tasks run in order: tear every session down, then stop the
    // loop — both on the loop's own thread, so no session state races.
    pl->loop->post([r, pl] {
      std::vector<std::shared_ptr<ReactorState::Session>> doomed;
      doomed.reserve(pl->sessions.size());
      for (const auto& [salt, s] : pl->sessions) doomed.push_back(s);
      for (const auto& s : doomed) r->finish(s, false);
    });
    EventLoop* lp = pl->loop.get();
    lp->post([lp] { lp->stop(); });
  }
  for (auto& plp : r->loops)
    if (plp->thread.joinable()) plp->thread.join();
  for (auto& plp : r->loops) plp->listener.close();
  reactor_.reset();
}

}  // namespace fairshare::net
