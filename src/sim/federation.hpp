// Federated-swarm scenario: several origin servers ("shards"), one user
// population, gossiped contribution ledgers.
//
// This is the simulation twin of the live disco path: each shard runs its
// own Eq. (2) ProportionalContributionPolicy credited only with the service
// IT delivered, plus an alloc::FederatedLedger replica.  Every slot a shard
// publishes its cumulative per-user totals into its replica and hands the
// gossiped REMOTE totals (every other origin's rows) to the policy's
// fold_swarm_total — the same ledger call the live pacing tick makes with
// its discovery hook's totals.  Replicas max-merge pairwise every
// gossip_period_slots (0 = never, the negative control: shards then see
// only local history).
//
// The scenario the federation tests drive: a user contributes bytes
// through shard A, then shows up requesting at shard B.  With gossip on,
// B's ledger already carries the user's swarm-wide standing and Eq. (2)
// grants the earned share; with gossip off, the user starts from epsilon.
//
// sim cannot depend on disco (net links sim), which is why the gossip
// transport here is a direct replica merge rather than wire frames — the
// CRDT algebra and the fold are the shared, tested pieces.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/federated_ledger.hpp"
#include "alloc/policies.hpp"

namespace fairshare::sim {

struct FederationConfig {
  std::size_t shards = 2;
  std::size_t users = 4;
  /// Upload capacity of each shard per slot (kbps).
  double shard_capacity_kbps = 1000.0;
  /// Merge every replica pair each N slots; 0 = gossip disabled.
  std::uint64_t gossip_period_slots = 4;
  /// Eq. (2) epsilon (the arbitrary small positive initial ledger).
  double epsilon = 1.0;
};

class FederationSim {
 public:
  explicit FederationSim(FederationConfig config);

  /// Advance one slot.  requesting[s][u] != 0 iff user u requests from
  /// shard s this slot (a user may request from several shards at once —
  /// each shard allocates independently, as live servers do).
  void step(const std::vector<std::vector<std::uint8_t>>& requesting);

  /// Force one full anti-entropy round now (tests use this instead of
  /// waiting out gossip_period_slots).
  void gossip_now();

  std::uint64_t now() const { return slot_; }

  /// Share (kbps) shard `s` granted user `u` in the last step.
  double last_share(std::size_t s, std::size_t u) const;
  /// Cumulative service shard `s` itself delivered to user `u`.
  double local_total(std::size_t s, std::size_t u) const;
  /// User `u`'s gossiped remote standing at shard `s` (every other
  /// origin's rows, as the shard's replica currently knows them).
  double known_remote(std::size_t s, std::size_t u) const;
  /// Shard `s`'s Eq. (2) ledger row for user `u` (epsilon + local +
  /// folded remote).
  double policy_ledger(std::size_t s, std::size_t u) const;

 private:
  struct Shard {
    std::unique_ptr<alloc::ProportionalContributionPolicy> policy;
    alloc::FederatedLedger replica;
    std::vector<double> local_total;  ///< cumulative service delivered
    std::vector<double> last_shares;  ///< this slot's service, credited next
  };

  FederationConfig config_;
  std::vector<Shard> shards_;
  std::uint64_t slot_ = 0;
};

}  // namespace fairshare::sim
