#include "sim/federation.hpp"

#include <cassert>

namespace fairshare::sim {

FederationSim::FederationSim(FederationConfig config)
    : config_(config), shards_(config.shards) {
  for (Shard& shard : shards_) {
    shard.policy = std::make_unique<alloc::ProportionalContributionPolicy>(
        config_.users, config_.epsilon);
    shard.local_total.assign(config_.users, 0.0);
    shard.last_shares.assign(config_.users, 0.0);
  }
}

void FederationSim::step(
    const std::vector<std::vector<std::uint8_t>>& requesting) {
  assert(requesting.size() == shards_.size());

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    assert(requesting[s].size() == config_.users);

    // The live pacing tick's order: credit the service of the slot that
    // just ended (its shares), fold the gossiped remote totals, allocate.
    for (std::size_t u = 0; u < config_.users; ++u) {
      shard.policy->credit(u, shard.last_shares[u]);
      shard.policy->fold_swarm_total(
          u, shard.replica.swarm_total(u, /*exclude=*/s));
    }

    alloc::PeerContext ctx;
    ctx.slot = slot_;
    ctx.capacity = config_.shard_capacity_kbps;
    ctx.requesting = requesting[s];
    shard.policy->allocate(ctx, shard.last_shares);  // 0 for idle users

    for (std::size_t u = 0; u < config_.users; ++u) {
      shard.local_total[u] += shard.last_shares[u];
      // Publish end-of-slot totals, as the live tick publishes user_bytes_
      // already including the quantum that just ended.
      shard.replica.record(u, /*origin=*/s, shard.local_total[u]);
    }
  }

  ++slot_;
  if (config_.gossip_period_slots > 0 &&
      slot_ % config_.gossip_period_slots == 0) {
    gossip_now();
  }
}

void FederationSim::gossip_now() {
  // All-pairs push (one anti-entropy round converges the replicas fully;
  // the live path takes O(log n) random rounds for the same effect).
  std::vector<std::vector<alloc::FederatedLedger::Entry>> snapshots;
  snapshots.reserve(shards_.size());
  for (Shard& shard : shards_) snapshots.push_back(shard.replica.snapshot());
  for (std::size_t s = 0; s < shards_.size(); ++s)
    for (std::size_t o = 0; o < shards_.size(); ++o)
      if (o != s) shards_[s].replica.merge(snapshots[o]);
}

double FederationSim::last_share(std::size_t s, std::size_t u) const {
  return shards_[s].last_shares[u];
}

double FederationSim::local_total(std::size_t s, std::size_t u) const {
  return shards_[s].local_total[u];
}

double FederationSim::known_remote(std::size_t s, std::size_t u) const {
  return shards_[s].replica.swarm_total(u, /*exclude=*/s);
}

double FederationSim::policy_ledger(std::size_t s, std::size_t u) const {
  return shards_[s].policy->ledger()[u];
}

}  // namespace fairshare::sim
