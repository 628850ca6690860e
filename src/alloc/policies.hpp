// Concrete allocation policies: the paper's rule, its baselines, and the
// adversarial strategies used in the fairness experiments.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "alloc/policy.hpp"

namespace fairshare::alloc {

/// The paper's proposed rule, Equation (2):
///
///   mu_ij(t) = mu_i * I_j(t) * S_ji(t) / sum_l I_l(t) * S_li(t)
///
/// where S_ji(t) = sum_{k<t} mu_ji(k) is the cumulative bandwidth peer j
/// has contributed to this peer's user, measured locally.  S starts at a
/// small equal positive epsilon ("arbitrary small positive initial
/// values"), which also matches the simulator setup of Section V.
///
/// This is the one Eq. (2) ledger of the code base: the simulator feeds it
/// through observe(), while the live server (net::PeerServer), the replay
/// engine (sim::replay_sim) and the federation twin (sim::FederationSim)
/// drive it directly through credit() and fold_swarm_total().
class ProportionalContributionPolicy : public AllocationPolicy {
 public:
  ProportionalContributionPolicy(std::size_t n_peers, double epsilon = 1.0);

  /// Arbitrary positive initial ledger ("nodes could be assigned any
  /// feasible initial allocation of upload bandwidth", Section V) —
  /// Figure 5(a)'s random initial transient uses this.
  explicit ProportionalContributionPolicy(std::vector<double> initial_ledger);

  void allocate(const PeerContext& ctx, std::span<double> out) override;
  void observe(const SlotFeedback& feedback) override;

  /// Add `amount` to user j's ledger S_j: a seed, or service measured
  /// outside the engine's feedback (bytes a live server sent to j).
  void credit(std::size_t j, double amount) { received_total_[j] += amount; }

  /// Fold a gossiped swarm-wide total for user j (service j earned at
  /// OTHER origins) into the ledger.  Only the growth since the previous
  /// fold is credited, so a re-delivered or shrinking total credits
  /// nothing and the fold is idempotent under gossip re-delivery.
  void fold_swarm_total(std::size_t j, double total);

  /// Cumulative contribution ledger S_ji (for tests/inspection).
  const std::vector<double>& ledger() const { return received_total_; }

 protected:
  std::vector<double> received_total_;  // S_ji, indexed by j

 private:
  std::vector<double> folded_;  // swarm total already credited, by j
};

/// Ablation A2 (the paper's own future-work suggestion): identical to
/// Equation (2) but the ledger is an exponentially decayed sum,
/// S <- decay * S + received, so "newer contributions" are weighed
/// "disproportionately ... over older ones" and the system adapts faster
/// (at some cost in long-run fairness smoothing).
class DecayingContributionPolicy final
    : public ProportionalContributionPolicy {
 public:
  DecayingContributionPolicy(std::size_t n_peers, double decay,
                             double epsilon = 1.0);

  void observe(const SlotFeedback& feedback) override;

 private:
  double decay_;
};

/// The motivating baseline, Equation (3) (global proportional fairness in
/// the style of Yang & de Veciana, self-contributions included):
///
///   mu_ij(t) = mu_i * I_j(t) * d_j / sum_l I_l(t) * d_l
///
/// where d_j is peer j's *declared* capacity.  Section IV-B shows
/// d(allocation)/d(declared) > 0 — "a strong incentive for peer j to
/// declare a high contribution" — which the liar-attack ablation
/// demonstrates.
class DeclaredProportionalPolicy final : public AllocationPolicy {
 public:
  void allocate(const PeerContext& ctx, std::span<double> out) override;
};

/// Naive baseline: equal split among current requesters.
class EqualSplitPolicy final : public AllocationPolicy {
 public:
  void allocate(const PeerContext& ctx, std::span<double> out) override;
};

/// Adversary: contributes nothing to anyone (free rider).  Note the engine
/// still lets its *user* request; Theorem 1 predicts it ends up with little
/// more than what its own peer gives it (here: nothing).
class FreeRiderPolicy final : public AllocationPolicy {
 public:
  void allocate(const PeerContext& ctx, std::span<double> out) override;
};

/// Adversary: serves only its own user; other requesters get nothing.
class SelfOnlyPolicy final : public AllocationPolicy {
 public:
  void allocate(const PeerContext& ctx, std::span<double> out) override;
};

/// Adversary/collusion: splits capacity equally among requesting coalition
/// members only (the paper argues Theorem 1's guarantee survives any such
/// coalition strategy).
class CoalitionPolicy final : public AllocationPolicy {
 public:
  explicit CoalitionPolicy(std::vector<std::size_t> members);
  void allocate(const PeerContext& ctx, std::span<double> out) override;

 private:
  std::vector<std::size_t> members_;
};

}  // namespace fairshare::alloc
