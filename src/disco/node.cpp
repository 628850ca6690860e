#include "disco/node.hpp"

#include <sys/epoll.h>

#include <algorithm>
#include <chrono>
#include <utility>

namespace fairshare::disco {

namespace {

using Clock = std::chrono::steady_clock;

// Deterministic partner selection without dragging in an RNG dependency:
// one LCG step per draw (quality is irrelevant — any spread works for
// picking a gossip partner).
std::uint64_t lcg_step(std::uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return state >> 33;
}

}  // namespace

// One inbound connection on the event loop: responses queue in `outq`
// until the transport accepts them, fault-injected delays park the fd on
// a timer (mirroring the PeerServer reactor's handling).
struct DiscoveryNode::Conn {
  int fd = -1;
  std::unique_ptr<net::Transport> transport;
  std::deque<std::vector<std::byte>> outq;
  bool registered = false;
  std::uint32_t interest = 0;
  net::EventLoop::TimerId retry_timer = 0;
  Clock::time_point last_active;
};

DiscoveryNode::DiscoveryNode(NodeConfig config)
    : config_(std::move(config)),
      registry_(config_.registry ? config_.registry
                                 : &obs::MetricsRegistry::global()) {}

DiscoveryNode::~DiscoveryNode() { stop(); }

bool DiscoveryNode::start() {
  auto listener = net::Listener::bind_local(config_.port);
  if (!listener) return false;
  listener_ = std::move(*listener);
  port_ = listener_.port();

  self_.host = config_.host;
  self_.port = port_;
  self_.id = config_.ring_id != 0
                 ? config_.ring_id
                 : dht::ring_hash(config_.host + ":" + std::to_string(port_));
  origin_ = config_.origin_id != 0 ? config_.origin_id : self_.id;
  gossip_cursor_ = config_.rng_seed ^ self_.id;

  const obs::LabelList node = {{"node", std::to_string(self_.id)}};
  m_lookups_ = &registry_->counter("fairshare_disco_lookups_total", node);
  m_announces_ = &registry_->counter("fairshare_disco_announces_total", node);
  m_resolves_ = &registry_->counter("fairshare_disco_resolves_total", node);
  m_gossip_rounds_ =
      &registry_->counter("fairshare_disco_gossip_rounds_total", node);
  m_members_dropped_ =
      &registry_->counter("fairshare_disco_members_dropped_total", node);
  m_members_ = &registry_->gauge("fairshare_disco_members", node);
  m_provider_records_ =
      &registry_->gauge("fairshare_disco_provider_records", node);
  m_ledger_entries_ = &registry_->gauge("fairshare_disco_ledger_entries", node);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    members_[self_.id] = self_;
    ring_.join(self_.id);
    update_mesh_gauges_locked();
  }

  outbound_ = std::make_unique<util::ThreadPool>(4);
  running_ = true;
  join_mesh();  // best-effort: unreachable seeds leave a single-node ring

  return loop_start();
}

void DiscoveryNode::stop() {
  if (!running_.exchange(false)) return;
  loop_stop();
  outbound_.reset();  // joins in-flight gossip/replicate jobs
  listener_.close();
}

// ------------------------------------------------------------ mesh state

std::size_t DiscoveryNode::merge_members_locked(
    const std::vector<wire::Member>& members) {
  std::size_t learned = 0;
  for (const wire::Member& m : members) {
    if (m.id == 0 || m.port == 0) continue;  // malformed gossip rows
    const auto [it, inserted] = members_.emplace(m.id, m);
    if (inserted) {
      ring_.join(m.id);
      ++learned;
    }
  }
  if (learned > 0) update_mesh_gauges_locked();
  return learned;
}

wire::Gossip DiscoveryNode::local_view_locked(bool reply) {
  wire::Gossip g;
  g.reply = reply;
  g.from = self_;
  g.members.reserve(members_.size());
  for (const auto& [id, m] : members_) g.members.push_back(m);
  g.ledger = ledger_.snapshot();
  return g;
}

std::vector<wire::Member> DiscoveryNode::successor_members_locked(
    dht::RingId node) {
  std::vector<wire::Member> out;
  if (!ring_.contains(node)) return out;
  for (const dht::RingId id : ring_.successor_list(node)) {
    const auto it = members_.find(id);
    if (it != members_.end()) out.push_back(it->second);
  }
  return out;
}

void DiscoveryNode::update_mesh_gauges_locked() {
  m_members_->set(static_cast<double>(members_.size()));
  std::size_t records = 0;
  for (const auto& [file, entries] : providers_) records += entries.size();
  m_provider_records_->set(static_cast<double>(records));
  m_ledger_entries_->set(static_cast<double>(ledger_.size()));
}

wire::StatusResponse DiscoveryNode::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  wire::StatusResponse s;
  s.self = self_;
  s.members.reserve(members_.size());
  for (const auto& [id, m] : members_) s.members.push_back(m);
  for (const auto& [file, entries] : providers_)
    s.provider_records += static_cast<std::uint32_t>(entries.size());
  s.ledger_entries = static_cast<std::uint32_t>(ledger_.size());
  s.gossip_rounds = gossip_rounds_.load();
  s.lookups_served = lookups_served_.load();
  return s;
}

std::vector<wire::Provider> DiscoveryNode::stored_providers(
    std::uint64_t file_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<wire::Provider> out;
  const auto it = providers_.find(file_id);
  if (it == providers_.end()) return out;
  const auto now = Clock::now();
  for (const auto& [peer, entry] : it->second)
    if (entry.expires > now) out.push_back(entry.provider);
  return out;
}

// --------------------------------------------------------- request logic

std::optional<std::vector<std::byte>> DiscoveryNode::handle_frame(
    std::span<const std::byte> frame) {
  const auto type = wire::peek_type(frame);
  if (!type) return std::nullopt;
  switch (*type) {
    case wire::MessageType::lookup_request: {
      const auto msg = wire::decode_lookup_request(frame);
      if (!msg) return std::nullopt;
      return handle_lookup(*msg);
    }
    case wire::MessageType::announce_request: {
      const auto msg = wire::decode_announce_request(frame);
      if (!msg) return std::nullopt;
      return handle_announce(*msg);
    }
    case wire::MessageType::resolve_request: {
      const auto msg = wire::decode_resolve_request(frame);
      if (!msg) return std::nullopt;
      return handle_resolve(*msg);
    }
    case wire::MessageType::join_request: {
      const auto msg = wire::decode_join_request(frame);
      if (!msg) return std::nullopt;
      return handle_join(*msg);
    }
    case wire::MessageType::gossip: {
      const auto msg = wire::decode_gossip(frame);
      if (!msg) return std::nullopt;
      return handle_gossip(*msg);
    }
    case wire::MessageType::status_request: {
      if (!wire::decode_status_request(frame)) return std::nullopt;
      return handle_status();
    }
    default:
      return std::nullopt;  // a response tag inbound is a protocol error
  }
}

std::vector<std::byte> DiscoveryNode::handle_lookup(
    const wire::LookupRequest& msg) {
  ++lookups_served_;
  m_lookups_->add(1);
  wire::LookupResponse resp;
  std::lock_guard<std::mutex> lock(mutex_);
  const dht::RouteStep step = ring_.route_step(msg.key, self_.id);
  resp.done = step.done;
  const auto it = members_.find(step.next);
  resp.target = it != members_.end() ? it->second : self_;
  if (step.done) resp.successors = successor_members_locked(step.next);
  return wire::encode(resp);
}

std::vector<std::byte> DiscoveryNode::handle_announce(
    const wire::AnnounceRequest& msg) {
  m_announces_->add(1);
  wire::AnnounceResponse resp;
  if (msg.provider.port == 0 || msg.ttl_ms == 0)
    return wire::encode(resp);  // stored=false
  std::vector<wire::Member> replicas;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    providers_[msg.file_id][msg.provider.peer_id] = {
        msg.provider,
        Clock::now() + std::chrono::milliseconds(msg.ttl_ms)};
    if (msg.replicate) replicas = successor_members_locked(self_.id);
    update_mesh_gauges_locked();
  }
  resp.stored = true;
  resp.replicas = static_cast<std::uint8_t>(replicas.size());
  if (!replicas.empty()) {
    wire::AnnounceRequest copy = msg;
    copy.replicate = false;  // replicas must not cascade
    outbound_->submit([this, copy, replicas] {
      replicate_record(copy, replicas);
    });
  }
  return wire::encode(resp);
}

std::vector<std::byte> DiscoveryNode::handle_resolve(
    const wire::ResolveRequest& msg) {
  m_resolves_->add(1);
  wire::ResolveResponse resp;
  resp.providers = stored_providers(msg.file_id);
  return wire::encode(resp);
}

std::vector<std::byte> DiscoveryNode::handle_join(
    const wire::JoinRequest& msg) {
  wire::Gossip reply;
  std::vector<wire::Member> notify;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    merge_members_locked({msg.joiner});
    reply = local_view_locked(/*reply=*/true);
    // Tell the rest of the mesh about the joiner now rather than waiting
    // out a gossip period per hop — small federations converge instantly.
    for (const auto& [id, m] : members_)
      if (id != self_.id && id != msg.joiner.id) notify.push_back(m);
  }
  for (const wire::Member& target : notify) {
    outbound_->submit([this, target] {
      wire::Gossip push;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        push = local_view_locked(/*reply=*/false);
      }
      const auto resp = request(target, wire::encode(push));
      if (!resp) return;
      const auto merged = wire::decode_gossip(*resp);
      if (!merged) return;
      std::lock_guard<std::mutex> lock(mutex_);
      merge_members_locked(merged->members);
      ledger_.merge(merged->ledger);
      update_mesh_gauges_locked();
    });
  }
  return wire::encode(reply);
}

std::vector<std::byte> DiscoveryNode::handle_gossip(const wire::Gossip& msg) {
  std::lock_guard<std::mutex> lock(mutex_);
  merge_members_locked(msg.members);
  merge_members_locked({msg.from});
  ledger_.merge(msg.ledger);
  update_mesh_gauges_locked();
  return wire::encode(local_view_locked(/*reply=*/true));
}

std::vector<std::byte> DiscoveryNode::handle_status() {
  return wire::encode(status());
}

// ------------------------------------------------------- outbound (pool)

std::unique_ptr<net::Transport> DiscoveryNode::dial(
    const wire::Member& target) {
  auto socket = net::Socket::connect_to(target.host, target.port);
  if (!socket) return nullptr;
  auto transport = std::make_unique<net::Socket>(std::move(*socket));
  transport->set_recv_timeout(config_.io_timeout_ms);
  transport->set_send_timeout(config_.io_timeout_ms);
  return transport;
}

std::optional<std::vector<std::byte>> DiscoveryNode::request(
    const wire::Member& target, std::span<const std::byte> frame) {
  auto transport = dial(target);
  if (!transport) {
    note_dial_result(target, false);
    return std::nullopt;
  }
  note_dial_result(target, true);
  if (!net::send_frame(*transport, frame)) return std::nullopt;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(config_.io_timeout_ms);
  while (running_) {
    auto resp = net::recv_frame(*transport, kMaxFrame);
    if (resp) return resp;
    if (!transport->timed_out() || Clock::now() >= deadline)
      return std::nullopt;
  }
  return std::nullopt;
}

void DiscoveryNode::note_dial_result(const wire::Member& target, bool ok) {
  if (target.id == 0 || target.id == self_.id) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (ok) {
    dial_failures_.erase(target.id);
    return;
  }
  if (++dial_failures_[target.id] < kDialFailureLimit) return;
  // Declared dead: drop it from the local view; provider records it held
  // keep being answered by its successors until re-announce refresh moves
  // them to the new owner.
  dial_failures_.erase(target.id);
  if (members_.erase(target.id) > 0) {
    ring_.leave(target.id);
    m_members_dropped_->add(1);
    update_mesh_gauges_locked();
  }
}

void DiscoveryNode::gossip_round() {
  wire::Member target;
  wire::Gossip push;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (members_.size() < 2) return;
    // Pick a random member other than self.
    std::vector<const wire::Member*> others;
    others.reserve(members_.size() - 1);
    for (const auto& [id, m] : members_)
      if (id != self_.id) others.push_back(&m);
    target = *others[lcg_step(gossip_cursor_) % others.size()];
    push = local_view_locked(/*reply=*/false);
  }
  ++gossip_rounds_;
  m_gossip_rounds_->add(1);
  const auto resp = request(target, wire::encode(push));
  if (!resp) return;
  const auto merged = wire::decode_gossip(*resp);
  if (!merged || !merged->reply) return;
  std::lock_guard<std::mutex> lock(mutex_);
  merge_members_locked(merged->members);
  ledger_.merge(merged->ledger);
  update_mesh_gauges_locked();
}

void DiscoveryNode::gossip_now() { gossip_round(); }

void DiscoveryNode::replicate_record(
    const wire::AnnounceRequest& record,
    const std::vector<wire::Member>& replicas) {
  const auto frame = wire::encode(record);
  for (const wire::Member& target : replicas) {
    if (!running_) return;
    request(target, frame);  // best-effort; TTL refresh repairs misses
  }
}

bool DiscoveryNode::announce_to_owner(std::uint64_t file_id,
                                      const wire::Provider& p) {
  wire::AnnounceRequest req;
  req.file_id = file_id;
  req.provider = p;
  req.ttl_ms = config_.provider_ttl_ms;
  req.replicate = true;

  bool local = false;
  std::vector<wire::Member> targets;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const dht::RingId owner = ring_.successor(file_key(file_id));
    if (owner == self_.id) {
      local = true;
    } else {
      const auto it = members_.find(owner);
      if (it != members_.end()) targets.push_back(it->second);
      // The owner may be freshly dead: its successors are the fallback
      // write targets (replicate=true there re-covers the shifted range).
      for (const wire::Member& m : successor_members_locked(owner))
        targets.push_back(m);
    }
  }
  if (local) {
    handle_announce(req);  // stores + pushes replicas
    return true;
  }
  const auto frame = wire::encode(req);
  for (const wire::Member& target : targets) {
    const auto resp = request(target, frame);
    if (!resp) continue;
    const auto decoded = wire::decode_announce_response(*resp);
    if (decoded && decoded->stored) return true;
  }
  return false;
}

void DiscoveryNode::reannounce_all() {
  std::vector<std::pair<std::uint64_t, wire::Provider>> provides;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    provides = local_provides_;
  }
  for (const auto& [file_id, provider] : provides) {
    if (!running_) return;
    announce_to_owner(file_id, provider);
  }
}

bool DiscoveryNode::join_mesh() {
  if (config_.seeds.empty()) return true;
  const auto frame = wire::encode(wire::JoinRequest{self_});
  for (const wire::Member& seed : config_.seeds) {
    const auto resp = request(seed, frame);
    if (!resp) continue;
    const auto view = wire::decode_gossip(*resp);
    if (!view) continue;
    std::lock_guard<std::mutex> lock(mutex_);
    merge_members_locked(view->members);
    merge_members_locked({view->from});
    ledger_.merge(view->ledger);
    update_mesh_gauges_locked();
    return true;
  }
  return false;
}

void DiscoveryNode::sweep_expired() {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto now = Clock::now();
  for (auto it = providers_.begin(); it != providers_.end();) {
    auto& entries = it->second;
    for (auto e = entries.begin(); e != entries.end();)
      e = e->second.expires <= now ? entries.erase(e) : std::next(e);
    it = entries.empty() ? providers_.erase(it) : std::next(it);
  }
  update_mesh_gauges_locked();
}

// ------------------------------------------------------------ DiscoveryHook

bool DiscoveryNode::announce_file(std::uint64_t file_id,
                                  const net::ServeEndpoint& endpoint) {
  wire::Provider p;
  p.peer_id = endpoint.peer_id;
  p.host = endpoint.host;
  p.port = endpoint.port;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    local_provides_.emplace_back(file_id, p);
  }
  return announce_to_owner(file_id, p);
}

void DiscoveryNode::publish_contribution(std::uint64_t user_id,
                                         double total) {
  ledger_.record(user_id, origin_, total);
}

double DiscoveryNode::swarm_contribution(std::uint64_t user_id) const {
  return ledger_.swarm_total(user_id, origin_);
}

// --------------------------------------------------------- serving core

bool DiscoveryNode::loop_start() {
  loop_ = std::make_unique<net::EventLoop>("disco." + std::to_string(port_),
                                           registry_);
  if (!loop_->valid()) return false;
  listener_.set_nonblocking(true);
  loop_->post([this] {
    loop_->add_fd(listener_.native_handle(), EPOLLIN,
                  [this](std::uint32_t) { accept_ready(); });
    if (config_.gossip_period_ms > 0) {
      loop_->add_periodic(
          std::uint64_t{config_.gossip_period_ms} * 1'000'000ull, [this] {
            // One round in flight at a time: a slow partner must not
            // stack queued rounds behind itself.
            if (gossip_inflight_.exchange(true)) return;
            outbound_->submit([this] {
              if (running_) gossip_round();
              gossip_inflight_ = false;
            });
          });
    }
    if (config_.reannounce_period_ms > 0) {
      loop_->add_periodic(
          std::uint64_t{config_.reannounce_period_ms} * 1'000'000ull,
          [this] { outbound_->submit([this] { reannounce_all(); }); });
    }
    const std::uint64_t sweep_ns =
        std::max<std::uint64_t>(config_.provider_ttl_ms / 2, 100) *
        1'000'000ull;
    loop_->add_periodic(sweep_ns, [this] {
      sweep_expired();
      // Idle inbound connections (a crashed client, a wedged wrapper)
      // must not accumulate: close anything quiet for 30 s.
      const auto cutoff = Clock::now() - std::chrono::seconds(30);
      std::vector<std::shared_ptr<Conn>> idle;
      for (const auto& [fd, c] : conns_)
        if (c->last_active < cutoff) idle.push_back(c);
      for (const auto& c : idle) close_conn(c);
    });
  });
  loop_thread_ = std::thread([this] { loop_->run(); });
  return true;
}

void DiscoveryNode::loop_stop() {
  if (!loop_) return;
  loop_->post([this] {
    std::vector<std::shared_ptr<Conn>> doomed;
    doomed.reserve(conns_.size());
    for (const auto& [fd, c] : conns_) doomed.push_back(c);
    for (const auto& c : doomed) close_conn(c);
    loop_->stop();
  });
  if (loop_thread_.joinable()) loop_thread_.join();
  loop_.reset();
}

void DiscoveryNode::accept_ready() {
  for (;;) {
    auto client = listener_.accept(/*timeout_ms=*/0);
    if (!client || !running_) return;
    client->set_nonblocking(true);
    const int fd = client->native_handle();
    std::unique_ptr<net::Transport> transport =
        std::make_unique<net::Socket>(std::move(*client));
    if (config_.transport_wrapper)
      transport = config_.transport_wrapper(std::move(transport));
    auto c = std::make_shared<Conn>();
    c->fd = fd;
    c->transport = std::move(transport);
    c->last_active = Clock::now();
    conns_[fd] = c;
    c->registered = true;
    c->interest = EPOLLIN;
    loop_->add_fd(fd, EPOLLIN, [this, c](std::uint32_t) { pump(c); });
    pump(c);  // the wrapper may already hold buffered input or refuse
  }
}

void DiscoveryNode::pump(const std::shared_ptr<Conn>& c) {
  if (!c->transport) return;  // already closed
  if (!running_) {
    close_conn(c);
    return;
  }
  const auto arm_retry = [this, &c](Clock::time_point release) {
    if (c->retry_timer) return;
    const auto delay = release - Clock::now();
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(delay).count();
    c->retry_timer = loop_->add_timer_after(
        ns > 0 ? static_cast<std::uint64_t>(ns) + 500'000ull : 1,
        [this, c] {
          c->retry_timer = 0;
          pump(c);
        });
  };

  // Drain staged + queued responses.
  const auto flush = [&]() -> bool {  // false = connection gone
    for (;;) {
      if (c->transport->want_write()) {
        const net::IoStatus st = c->transport->try_flush();
        if (st == net::IoStatus::closed || st == net::IoStatus::error) {
          close_conn(c);
          return false;
        }
        if (st == net::IoStatus::blocked) return true;
      } else if (!c->outq.empty()) {
        const net::TryWrite r = c->transport->try_write_frame(c->outq.front());
        if (r.status == net::IoStatus::closed ||
            r.status == net::IoStatus::error) {
          close_conn(c);
          return false;
        }
        if (r.accepted) {
          c->outq.pop_front();
        } else {
          if (const auto release = c->transport->retry_after())
            arm_retry(*release);
          return true;
        }
      } else {
        return true;
      }
    }
  };

  if (!flush()) return;
  for (int i = 0; i < 16; ++i) {
    net::TryRead r = c->transport->try_read_frame(kMaxFrame);
    if (r.status == net::IoStatus::blocked) {
      if (const auto release = c->transport->retry_after())
        arm_retry(*release);
      break;
    }
    if (r.status != net::IoStatus::ok) {
      close_conn(c);
      return;
    }
    c->last_active = Clock::now();
    auto resp = handle_frame(r.frame);
    if (!resp) {
      close_conn(c);
      return;
    }
    c->outq.push_back(std::move(*resp));
  }
  if (!flush()) return;

  // Fault-delayed transports leave the interest set; the retry timer owns
  // the wakeup (level-triggered epoll would busy-spin otherwise).
  if (c->transport->retry_after().has_value()) {
    if (c->registered) {
      loop_->remove_fd(c->fd);
      c->registered = false;
    }
    return;
  }
  std::uint32_t want = EPOLLIN;
  if (c->transport->want_write() || !c->outq.empty()) want |= EPOLLOUT;
  if (!c->registered) {
    c->registered = true;
    c->interest = want;
    loop_->add_fd(c->fd, want, [this, c](std::uint32_t) { pump(c); });
  } else if (want != c->interest) {
    c->interest = want;
    loop_->modify_fd(c->fd, want);
  }
}

void DiscoveryNode::close_conn(const std::shared_ptr<Conn>& c) {
  if (!c->transport) return;
  if (c->retry_timer) {
    loop_->cancel_timer(c->retry_timer);
    c->retry_timer = 0;
  }
  if (c->registered) {
    loop_->remove_fd(c->fd);
    c->registered = false;
  }
  c->transport->close();
  c->transport.reset();
  conns_.erase(c->fd);
}

}  // namespace fairshare::disco
