// Workload replay over the simulator, and the report schema both replay
// engines share.
//
// replay_sim() runs a WorkloadTrace through the slotted Simulator with a
// topology mirroring the live setup of net::replay_live: one serving peer
// dividing its upload by the paper's Equation (2) — the same
// alloc::ProportionalContributionPolicy ledger the live server's pacing
// tick drives, credited with the framed bytes each user was served — and
// one closed-loop TraceDemand per user that requests while it has
// backlog.  Both engines emit a ReplayReport with identical fields, so a
// sim run and a live run of the same trace can be compared field-for-field
// by replay_agrees() — the agreement test that keeps the simulator honest.
//
// Unit mapping.  The simulator's native units are kbps with one slot = one
// second.  A replay slot instead stands for `slot_seconds` of wall time,
// and the live server's pacing budget is charged *framed* bytes (header +
// payload) while goodput counts payload only; so the serving peer's sim
// capacity is rate_kbps * slot_seconds / wire_overhead, making "bytes
// delivered per sim slot" equal "payload bytes per slot_seconds of wall
// time" (see net::wire_overhead_factor for the overhead of a FileInfo).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/workload.hpp"

namespace fairshare::sim {

/// Per-user outcome of one replay (either engine).
struct ReplayUserStats {
  std::uint64_t user_id = 0;
  std::uint64_t events = 0;         ///< workload events for this user
  std::uint64_t bytes = 0;          ///< demanded bytes (post-quantization)
  double delivered_bytes = 0.0;     ///< payload bytes actually delivered
  double first_seconds = 0.0;       ///< first arrival, seconds from start
  double done_seconds = 0.0;        ///< last delivery completed
  double goodput_bps = 0.0;         ///< delivered*8 / (done - first)
  double share = 0.0;               ///< goodput / sum of all goodputs
  /// Sim engine only: payload bytes delivered per slot (empty for live).
  std::vector<double> per_slot_bytes;
};

/// One replay run, comparable field-for-field across engines.
struct ReplayReport {
  std::string mode;                 ///< "sim" or "live"
  double rate_kbps = 0.0;           ///< serving peer's wire upload capacity
  double slot_seconds = 0.0;        ///< wall seconds one slot stands for
  double wire_overhead = 1.0;       ///< framed bytes / payload bytes
  std::uint64_t slots = 0;          ///< slots executed (live: derived)
  double seconds = 0.0;             ///< total run duration
  std::uint64_t total_bytes = 0;    ///< demanded bytes across users
  std::size_t transfers_failed = 0; ///< live: failed downloads; sim: users
                                    ///< still backlogged at max_slots
  std::vector<ReplayUserStats> users;  ///< sorted by user_id
};

struct SimReplayConfig {
  /// Live serving peer's upload capacity in kbps (the wire rate; the
  /// effective sim capacity divides out wire_overhead).
  double rate_kbps = 4000.0;
  /// Wall seconds one sim slot stands for.
  double slot_seconds = 0.05;
  /// Safety cap on slots (a trace the capacity cannot drain must not spin
  /// forever); leftovers are reported in transfers_failed.
  std::uint64_t max_slots = 1 << 20;
  /// When > 0, demand is rounded up to whole multiples (the live driver
  /// transfers whole files of this many bytes).
  std::uint64_t quantize_bytes = 0;
  /// Framed-bytes / payload-bytes factor of the live wire format (>= 1).
  double wire_overhead = 1.0;
  /// Initial Equation-(2) ledger credits, mirroring
  /// PeerServer::seed_contribution (user_id, amount-in-bytes).
  std::vector<std::pair<std::uint64_t, double>> seed_contributions;
  /// When set, the run publishes sim::publish_metrics plus the replay
  /// gauges of publish_replay_metrics into this registry.
  obs::MetricsRegistry* registry = nullptr;
};

/// Replay `trace` through the slotted simulator.  The trace must be
/// normalized (every importer/generator returns it that way).
ReplayReport replay_sim(const WorkloadTrace& trace,
                        const SimReplayConfig& config);

struct AgreementOptions {
  /// Max relative difference admitted per compared quantity.
  double tolerance = 0.15;
  /// Users whose share is below this in BOTH runs skip the goodput/share
  /// comparison (tiny flows are dominated by per-transfer setup noise).
  double min_share = 0.0;
};

/// Field-for-field agreement check between two replay runs of the same
/// trace: same users, same demanded bytes, per-user goodput and Equation-
/// (2) share within tolerance.  On failure *why (if given) names the first
/// disagreeing user and quantity.
bool replay_agrees(const ReplayReport& a, const ReplayReport& b,
                   const AgreementOptions& options = {},
                   std::string* why = nullptr);

/// JSON rendering of a report (the `fairshare_cli replay` output format;
/// stable key order).  per_slot_bytes series are included only when
/// non-empty.
std::string to_json(const ReplayReport& report);

/// Export a report's headline numbers as gauges: per-user goodput/share
/// (labels mode=<mode>, user=<id>) plus run totals.
void publish_replay_metrics(const ReplayReport& report,
                            obs::MetricsRegistry& registry);

}  // namespace fairshare::sim
