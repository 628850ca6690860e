#include "alloc/policies.hpp"

#include <algorithm>
#include <cassert>

namespace fairshare::alloc {

// ------------------------------------- ProportionalContributionPolicy (2)

ProportionalContributionPolicy::ProportionalContributionPolicy(
    std::size_t n_peers, double epsilon)
    : received_total_(n_peers, epsilon), folded_(n_peers, 0.0) {
  assert(epsilon > 0.0 && "Equation (2) needs positive initial values");
}

ProportionalContributionPolicy::ProportionalContributionPolicy(
    std::vector<double> initial_ledger)
    : received_total_(std::move(initial_ledger)),
      folded_(received_total_.size(), 0.0) {
#ifndef NDEBUG
  for (double v : received_total_)
    assert(v > 0.0 && "Equation (2) needs positive initial values");
#endif
}

void ProportionalContributionPolicy::allocate(const PeerContext& ctx,
                                              std::span<double> out) {
  assert(out.size() == received_total_.size());
  std::fill(out.begin(), out.end(), 0.0);
  double denom = 0.0;
  for (std::size_t l = 0; l < out.size(); ++l)
    if (ctx.requesting[l]) denom += received_total_[l];
  if (denom <= 0.0) return;
  for (std::size_t j = 0; j < out.size(); ++j)
    if (ctx.requesting[j])
      out[j] = ctx.capacity * received_total_[j] / denom;
}

void ProportionalContributionPolicy::observe(const SlotFeedback& feedback) {
  assert(feedback.received.size() == received_total_.size());
  for (std::size_t j = 0; j < received_total_.size(); ++j)
    received_total_[j] += feedback.received[j];
}

void ProportionalContributionPolicy::fold_swarm_total(std::size_t j,
                                                      double total) {
  if (total <= folded_[j]) return;
  received_total_[j] += total - folded_[j];
  folded_[j] = total;
}

// ------------------------------------------ DecayingContributionPolicy

DecayingContributionPolicy::DecayingContributionPolicy(std::size_t n_peers,
                                                       double decay,
                                                       double epsilon)
    : ProportionalContributionPolicy(n_peers, epsilon), decay_(decay) {
  assert(decay > 0.0 && decay <= 1.0);
}

void DecayingContributionPolicy::observe(const SlotFeedback& feedback) {
  assert(feedback.received.size() == received_total_.size());
  for (std::size_t j = 0; j < received_total_.size(); ++j)
    received_total_[j] =
        decay_ * received_total_[j] + feedback.received[j];
}

// ------------------------------------------ DeclaredProportionalPolicy (3)

void DeclaredProportionalPolicy::allocate(const PeerContext& ctx,
                                          std::span<double> out) {
  std::fill(out.begin(), out.end(), 0.0);
  double denom = 0.0;
  for (std::size_t l = 0; l < out.size(); ++l)
    if (ctx.requesting[l]) denom += ctx.declared[l];
  if (denom <= 0.0) return;
  for (std::size_t j = 0; j < out.size(); ++j)
    if (ctx.requesting[j])
      out[j] = ctx.capacity * ctx.declared[j] / denom;
}

// ------------------------------------------------------- EqualSplitPolicy

void EqualSplitPolicy::allocate(const PeerContext& ctx,
                                std::span<double> out) {
  std::fill(out.begin(), out.end(), 0.0);
  const auto requesters = static_cast<double>(
      std::count_if(ctx.requesting.begin(), ctx.requesting.end(),
                    [](std::uint8_t r) { return r != 0; }));
  if (requesters == 0.0) return;
  for (std::size_t j = 0; j < out.size(); ++j)
    if (ctx.requesting[j]) out[j] = ctx.capacity / requesters;
}

// -------------------------------------------------------------- adversaries

void FreeRiderPolicy::allocate(const PeerContext&, std::span<double> out) {
  std::fill(out.begin(), out.end(), 0.0);
}

void SelfOnlyPolicy::allocate(const PeerContext& ctx, std::span<double> out) {
  std::fill(out.begin(), out.end(), 0.0);
  if (ctx.requesting[ctx.self]) out[ctx.self] = ctx.capacity;
}

CoalitionPolicy::CoalitionPolicy(std::vector<std::size_t> members)
    : members_(std::move(members)) {}

void CoalitionPolicy::allocate(const PeerContext& ctx,
                               std::span<double> out) {
  std::fill(out.begin(), out.end(), 0.0);
  std::size_t active = 0;
  for (std::size_t m : members_)
    if (ctx.requesting[m]) ++active;
  if (active == 0) return;
  for (std::size_t m : members_)
    if (ctx.requesting[m])
      out[m] = ctx.capacity / static_cast<double>(active);
}

}  // namespace fairshare::alloc
