#include "sim/replay.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "alloc/policies.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace fairshare::sim {

namespace {

double relative_diff(double a, double b) {
  const double scale = std::max(std::abs(a), std::abs(b));
  if (scale <= 0.0) return 0.0;
  return std::abs(a - b) / scale;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

ReplayReport replay_sim(const WorkloadTrace& input,
                        const SimReplayConfig& config) {
  assert(input.is_sorted() && "normalize() the trace first");
  assert(config.rate_kbps > 0.0 && config.slot_seconds > 0.0);
  assert(config.wire_overhead >= 1.0);

  const WorkloadTrace trace = config.quantize_bytes > 0
                                  ? input.quantized(config.quantize_bytes)
                                  : input;
  const std::vector<std::uint64_t> ids = trace.users();
  const std::size_t n = ids.size() + 1;  // peer 0 serves

  // Payload bytes the server can deliver per sim slot, expressed in the
  // simulator's kbps units (bytes/slot = kbps * 125); see the unit-mapping
  // note in replay.hpp.
  const double effective_kbps =
      config.rate_kbps * config.slot_seconds / config.wire_overhead;

  // Peer 0's ledger is credited by hand below, with the bytes each user
  // was served; the engine's own feedback to it (what peer 0's user
  // received) is all zeros, since that user never requests and every
  // other peer is a zero-capacity free rider.
  auto policy = std::make_shared<alloc::ProportionalContributionPolicy>(n);
  std::map<std::uint64_t, std::size_t> index_of;  // user_id -> peer index
  for (std::size_t u = 0; u < ids.size(); ++u) index_of[ids[u]] = u + 1;
  for (const auto& [user_id, amount] : config.seed_contributions) {
    const auto it = index_of.find(user_id);
    if (it != index_of.end()) policy->credit(it->second, amount);
  }

  std::vector<std::shared_ptr<TraceDemand>> demands;
  std::vector<PeerSetup> peers(n);
  peers[0].upload_kbps = effective_kbps;
  peers[0].demand = std::make_shared<NeverDemand>();
  peers[0].policy = policy;
  for (std::size_t u = 0; u < ids.size(); ++u) {
    auto demand = std::make_shared<TraceDemand>(trace, ids[u]);
    demands.push_back(demand);
    peers[u + 1].upload_kbps = 0.0;  // pure consumers
    peers[u + 1].demand = demand;
    peers[u + 1].policy = std::make_shared<alloc::FreeRiderPolicy>();
  }

  SimConfig sim_config;
  sim_config.registry = config.registry;
  Simulator sim(std::move(peers), sim_config);

  ReplayReport report;
  report.mode = "sim";
  report.rate_kbps = config.rate_kbps;
  report.slot_seconds = config.slot_seconds;
  report.wire_overhead = config.wire_overhead;
  report.total_bytes = trace.total_bytes();
  report.users.resize(ids.size());

  std::vector<std::uint64_t> last_delivery(ids.size(), 0);
  std::vector<double> last_fraction(ids.size(), 1.0);
  while (sim.now() < config.max_slots) {
    bool pending = false;
    for (const auto& d : demands)
      if (!d->done()) pending = true;
    if (!pending) break;
    sim.step();
    const std::uint64_t t = sim.now() - 1;
    for (std::size_t u = 0; u < ids.size(); ++u) {
      const double bytes = sim.download(u + 1).at(t) * 125.0;
      const double consumed = demands[u]->deliver(bytes);
      // The live ledger accrues FRAMED bytes (the server charges
      // frame.size() against both budget and feedback), so seeds and
      // accrual mix at the same scale on both engines.
      policy->credit(u + 1, consumed * config.wire_overhead);
      report.users[u].per_slot_bytes.push_back(consumed);
      if (consumed > 0.0) {
        last_delivery[u] = t;
        // A backlog that drains before the slot's allocation runs out
        // finished partway through the slot; remember the fraction so
        // done_seconds carries sub-slot resolution like the live clock.
        last_fraction[u] = bytes > 0.0 ? std::min(consumed / bytes, 1.0)
                                       : 1.0;
      }
    }
  }

  report.slots = sim.now();
  report.seconds = static_cast<double>(report.slots) * config.slot_seconds;

  double goodput_sum = 0.0;
  for (std::size_t u = 0; u < ids.size(); ++u) {
    ReplayUserStats& s = report.users[u];
    const TraceDemand& d = *demands[u];
    s.user_id = ids[u];
    s.bytes = d.total_bytes();
    for (const WorkloadEvent& e : trace.events())
      if (e.user_id == ids[u]) {
        if (s.events == 0)
          s.first_seconds =
              static_cast<double>(e.arrival_slot) * config.slot_seconds;
        ++s.events;
      }
    s.delivered_bytes = d.delivered_bytes();
    s.done_seconds =
        (static_cast<double>(last_delivery[u]) + last_fraction[u]) *
        config.slot_seconds;
    const double span = s.done_seconds - s.first_seconds;
    s.goodput_bps = (s.delivered_bytes > 0.0 && span > 0.0)
                        ? s.delivered_bytes * 8.0 / span
                        : 0.0;
    goodput_sum += s.goodput_bps;
    if (!d.done()) ++report.transfers_failed;
  }
  for (ReplayUserStats& s : report.users)
    s.share = goodput_sum > 0.0 ? s.goodput_bps / goodput_sum : 0.0;

  if (config.registry) {
    publish_metrics(sim, *config.registry);
    publish_replay_metrics(report, *config.registry);
  }
  return report;
}

bool replay_agrees(const ReplayReport& a, const ReplayReport& b,
                   const AgreementOptions& options, std::string* why) {
  const auto fail = [&](const std::string& message) {
    if (why) *why = message;
    return false;
  };
  if (a.users.size() != b.users.size())
    return fail("user count differs: " + std::to_string(a.users.size()) +
                " vs " + std::to_string(b.users.size()));
  if (a.total_bytes != b.total_bytes)
    return fail("total_bytes differs: " + std::to_string(a.total_bytes) +
                " vs " + std::to_string(b.total_bytes));
  if (a.transfers_failed != 0 || b.transfers_failed != 0)
    return fail("transfers failed: " + std::to_string(a.transfers_failed) +
                " (" + a.mode + ") vs " + std::to_string(b.transfers_failed) +
                " (" + b.mode + ")");
  for (std::size_t u = 0; u < a.users.size(); ++u) {
    const ReplayUserStats& ua = a.users[u];
    const ReplayUserStats& ub = b.users[u];
    const std::string who = "user " + std::to_string(ua.user_id);
    if (ua.user_id != ub.user_id)
      return fail("user sets differ at index " + std::to_string(u));
    if (ua.bytes != ub.bytes)
      return fail(who + " demanded bytes differ: " +
                  std::to_string(ua.bytes) + " vs " + std::to_string(ub.bytes));
    if (ua.share < options.min_share && ub.share < options.min_share)
      continue;
    const double goodput_diff = relative_diff(ua.goodput_bps, ub.goodput_bps);
    if (goodput_diff > options.tolerance)
      return fail(who + " goodput disagrees by " +
                  format_double(goodput_diff * 100.0) + "%: " +
                  format_double(ua.goodput_bps) + " bps (" + a.mode +
                  ") vs " + format_double(ub.goodput_bps) + " bps (" +
                  b.mode + ")");
    const double share_diff = relative_diff(ua.share, ub.share);
    if (share_diff > options.tolerance)
      return fail(who + " share disagrees by " +
                  format_double(share_diff * 100.0) + "%: " +
                  format_double(ua.share) + " (" + a.mode + ") vs " +
                  format_double(ub.share) + " (" + b.mode + ")");
  }
  if (why) why->clear();
  return true;
}

std::string to_json(const ReplayReport& report) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"mode\": \"" << report.mode << "\",\n";
  out << "  \"rate_kbps\": " << format_double(report.rate_kbps) << ",\n";
  out << "  \"slot_seconds\": " << format_double(report.slot_seconds)
      << ",\n";
  out << "  \"wire_overhead\": " << format_double(report.wire_overhead)
      << ",\n";
  out << "  \"slots\": " << report.slots << ",\n";
  out << "  \"seconds\": " << format_double(report.seconds) << ",\n";
  out << "  \"total_bytes\": " << report.total_bytes << ",\n";
  out << "  \"transfers_failed\": " << report.transfers_failed << ",\n";
  out << "  \"users\": [";
  for (std::size_t u = 0; u < report.users.size(); ++u) {
    const ReplayUserStats& s = report.users[u];
    out << (u ? ",\n    {" : "\n    {");
    out << "\"user_id\": " << s.user_id;
    out << ", \"events\": " << s.events;
    out << ", \"bytes\": " << s.bytes;
    out << ", \"delivered_bytes\": " << format_double(s.delivered_bytes);
    out << ", \"first_seconds\": " << format_double(s.first_seconds);
    out << ", \"done_seconds\": " << format_double(s.done_seconds);
    out << ", \"goodput_bps\": " << format_double(s.goodput_bps);
    out << ", \"share\": " << format_double(s.share);
    if (!s.per_slot_bytes.empty()) {
      out << ", \"per_slot_bytes\": [";
      for (std::size_t t = 0; t < s.per_slot_bytes.size(); ++t)
        out << (t ? "," : "") << format_double(s.per_slot_bytes[t]);
      out << "]";
    }
    out << "}";
  }
  out << (report.users.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

void publish_replay_metrics(const ReplayReport& report,
                            obs::MetricsRegistry& registry) {
  const obs::LabelList run_labels = {{"mode", report.mode}};
  registry.gauge("fairshare_replay_seconds", run_labels).set(report.seconds);
  registry.gauge("fairshare_replay_total_bytes", run_labels)
      .set(static_cast<double>(report.total_bytes));
  registry.gauge("fairshare_replay_transfers_failed", run_labels)
      .set(static_cast<double>(report.transfers_failed));
  for (const ReplayUserStats& s : report.users) {
    const obs::LabelList labels = {{"mode", report.mode},
                                   {"user", std::to_string(s.user_id)}};
    registry.gauge("fairshare_replay_goodput_bps", labels)
        .set(s.goodput_bps);
    registry.gauge("fairshare_replay_share", labels).set(s.share);
    registry.gauge("fairshare_replay_delivered_bytes", labels)
        .set(s.delivered_bytes);
  }
}

}  // namespace fairshare::sim
