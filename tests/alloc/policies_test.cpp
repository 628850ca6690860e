// Unit behavior of every allocation policy, checked against the closed
// forms of Equations (2) and (3).
#include <gtest/gtest.h>

#include <vector>

#include "alloc/policies.hpp"

namespace fairshare::alloc {
namespace {

PeerContext context(std::size_t self, double capacity,
                    const std::vector<std::uint8_t>& requesting,
                    const std::vector<double>& declared) {
  PeerContext ctx;
  ctx.self = self;
  ctx.slot = 0;
  ctx.capacity = capacity;
  ctx.requesting = requesting;
  ctx.declared = declared;
  return ctx;
}

TEST(ProportionalContribution, EqualSeedGivesEqualSplit) {
  ProportionalContributionPolicy policy(3, 1.0);
  const std::vector<std::uint8_t> req{1, 1, 1};
  const std::vector<double> decl{100, 100, 100};
  std::vector<double> out(3);
  policy.allocate(context(0, 300, req, decl), out);
  EXPECT_DOUBLE_EQ(out[0], 100);
  EXPECT_DOUBLE_EQ(out[1], 100);
  EXPECT_DOUBLE_EQ(out[2], 100);
}

TEST(ProportionalContribution, ProportionalToLedger) {
  ProportionalContributionPolicy policy(3, 1.0);
  // Feed one slot of feedback: peer 1 contributed 9, peer 2 contributed 0.
  // Ledger becomes {1, 10, 1}.
  const std::vector<double> received{0.0, 9.0, 0.0};
  SlotFeedback fb;
  fb.slot = 0;
  fb.received = received;
  policy.observe(fb);

  const std::vector<std::uint8_t> req{0, 1, 1};
  const std::vector<double> decl{0, 0, 0};
  std::vector<double> out(3);
  policy.allocate(context(0, 110, req, decl), out);
  // Equation (2): shares 10/11 and 1/11 of 110.
  EXPECT_DOUBLE_EQ(out[0], 0);
  EXPECT_DOUBLE_EQ(out[1], 100);
  EXPECT_DOUBLE_EQ(out[2], 10);
}

TEST(ProportionalContribution, OnlyRequestersGetBandwidth) {
  ProportionalContributionPolicy policy(4, 1.0);
  const std::vector<std::uint8_t> req{0, 1, 0, 0};
  const std::vector<double> decl(4, 0.0);
  std::vector<double> out(4);
  policy.allocate(context(0, 100, req, decl), out);
  EXPECT_DOUBLE_EQ(out[0], 0);
  EXPECT_DOUBLE_EQ(out[1], 100);  // sole requester gets everything
  EXPECT_DOUBLE_EQ(out[2], 0);
  EXPECT_DOUBLE_EQ(out[3], 0);
}

TEST(ProportionalContribution, NoRequestersNoAllocation) {
  ProportionalContributionPolicy policy(2, 1.0);
  const std::vector<std::uint8_t> req{0, 0};
  const std::vector<double> decl(2, 0.0);
  std::vector<double> out(2);
  policy.allocate(context(0, 100, req, decl), out);
  EXPECT_DOUBLE_EQ(out[0] + out[1], 0);
}

TEST(ProportionalContribution, LedgerAccumulatesAcrossSlots) {
  ProportionalContributionPolicy policy(2, 1.0);
  for (int t = 0; t < 5; ++t) {
    const std::vector<double> received{2.0, 3.0};
    SlotFeedback fb;
    fb.slot = static_cast<std::uint64_t>(t);
    fb.received = received;
    policy.observe(fb);
  }
  EXPECT_DOUBLE_EQ(policy.ledger()[0], 1.0 + 10.0);
  EXPECT_DOUBLE_EQ(policy.ledger()[1], 1.0 + 15.0);
}

TEST(ProportionalContribution, CreditAddsToOneLedgerRow) {
  ProportionalContributionPolicy policy(3, 1.0);
  policy.credit(1, 9.0);
  policy.credit(1, 10.0);
  policy.credit(2, 0.5);
  EXPECT_DOUBLE_EQ(policy.ledger()[0], 1.0);
  EXPECT_DOUBLE_EQ(policy.ledger()[1], 20.0);
  EXPECT_DOUBLE_EQ(policy.ledger()[2], 1.5);
  // Credits feed Equation (2) exactly as observed feedback does.
  const std::vector<std::uint8_t> req{0, 1, 1};
  const std::vector<double> decl(3, 0.0);
  std::vector<double> out(3);
  policy.allocate(context(0, 215, req, decl), out);
  EXPECT_DOUBLE_EQ(out[1], 200);  // 215 * 20 / 21.5
  EXPECT_DOUBLE_EQ(out[2], 15);
}

TEST(ProportionalContribution, FoldCreditsOnlySwarmTotalGrowth) {
  ProportionalContributionPolicy policy(2, 1.0);
  policy.fold_swarm_total(0, 100.0);
  EXPECT_DOUBLE_EQ(policy.ledger()[0], 101.0);
  policy.fold_swarm_total(0, 100.0);  // gossip re-delivered: no credit
  EXPECT_DOUBLE_EQ(policy.ledger()[0], 101.0);
  policy.fold_swarm_total(0, 40.0);   // stale, smaller total: no credit
  EXPECT_DOUBLE_EQ(policy.ledger()[0], 101.0);
  policy.fold_swarm_total(0, 130.0);  // growth since the last fold only
  EXPECT_DOUBLE_EQ(policy.ledger()[0], 131.0);
  EXPECT_DOUBLE_EQ(policy.ledger()[1], 1.0);  // other rows untouched
}

TEST(ProportionalContribution, FoldIsIndependentOfLocalCredit) {
  // Local service and the remote fold are separate sources: crediting
  // local bytes must not shift the fold's baseline, or vice versa.
  ProportionalContributionPolicy policy(1, 1.0);
  policy.credit(0, 50.0);
  policy.fold_swarm_total(0, 20.0);
  policy.credit(0, 5.0);
  policy.fold_swarm_total(0, 20.0);
  policy.fold_swarm_total(0, 25.0);
  EXPECT_DOUBLE_EQ(policy.ledger()[0], 1.0 + 50.0 + 5.0 + 25.0);
}

TEST(CapacityClamp, DropsIdleAndNegativeRatesAndRescales) {
  const std::vector<std::uint8_t> req{1, 0, 1, 1};
  std::vector<double> row{300.0, 50.0, -10.0, 100.0};
  clamp_to_capacity(req, 200.0, row);
  EXPECT_DOUBLE_EQ(row[0], 150.0);  // 300 * 200 / 400
  EXPECT_DOUBLE_EQ(row[1], 0.0);    // not requesting
  EXPECT_DOUBLE_EQ(row[2], 0.0);    // negative
  EXPECT_DOUBLE_EQ(row[3], 50.0);
}

TEST(CapacityClamp, LeavesAFeasibleRowAlone) {
  const std::vector<std::uint8_t> req{1, 1};
  std::vector<double> row{30.0, 60.0};
  clamp_to_capacity(req, 100.0, row);
  EXPECT_DOUBLE_EQ(row[0], 30.0);
  EXPECT_DOUBLE_EQ(row[1], 60.0);
}

TEST(DecayingContribution, ForgetsOldContributions) {
  DecayingContributionPolicy policy(2, 0.5, 1.0);
  // One big early contribution from peer 0, then silence.
  {
    const std::vector<double> received{100.0, 0.0};
    SlotFeedback fb;
    fb.received = received;
    policy.observe(fb);
  }
  for (int t = 0; t < 20; ++t) {
    const std::vector<double> received{0.0, 1.0};
    SlotFeedback fb;
    fb.received = received;
    policy.observe(fb);
  }
  // Peer 0's credit decayed to ~100 * 0.5^20 ~ 0; peer 1's steady trickle
  // dominates.
  EXPECT_LT(policy.ledger()[0], 0.01);
  EXPECT_GT(policy.ledger()[1], 1.9);
}

TEST(DeclaredProportional, MatchesEquationThree) {
  DeclaredProportionalPolicy policy;
  const std::vector<std::uint8_t> req{1, 1, 0};
  const std::vector<double> decl{100, 300, 500};
  std::vector<double> out(3);
  policy.allocate(context(0, 400, req, decl), out);
  EXPECT_DOUBLE_EQ(out[0], 100);  // 400 * 100/400
  EXPECT_DOUBLE_EQ(out[1], 300);  // 400 * 300/400
  EXPECT_DOUBLE_EQ(out[2], 0);
}

TEST(DeclaredProportional, LiarGainsShare) {
  // The Section IV-B flaw: inflating declared capacity raises one's share.
  DeclaredProportionalPolicy policy;
  const std::vector<std::uint8_t> req{1, 1};
  std::vector<double> out(2);
  policy.allocate(context(0, 100, req, {100, 100}), out);
  const double honest = out[1];
  policy.allocate(context(0, 100, req, {100, 900}), out);
  EXPECT_GT(out[1], honest);
}

TEST(EqualSplit, DividesEvenlyAmongRequesters) {
  EqualSplitPolicy policy;
  const std::vector<std::uint8_t> req{1, 0, 1, 1};
  const std::vector<double> decl(4, 0.0);
  std::vector<double> out(4);
  policy.allocate(context(0, 90, req, decl), out);
  EXPECT_DOUBLE_EQ(out[0], 30);
  EXPECT_DOUBLE_EQ(out[1], 0);
  EXPECT_DOUBLE_EQ(out[2], 30);
  EXPECT_DOUBLE_EQ(out[3], 30);
}

TEST(FreeRider, AllocatesNothing) {
  FreeRiderPolicy policy;
  const std::vector<std::uint8_t> req{1, 1};
  const std::vector<double> decl(2, 0.0);
  std::vector<double> out{5.0, 5.0};
  policy.allocate(context(0, 100, req, decl), out);
  EXPECT_DOUBLE_EQ(out[0], 0);
  EXPECT_DOUBLE_EQ(out[1], 0);
}

TEST(SelfOnly, ServesOnlyItself) {
  SelfOnlyPolicy policy;
  const std::vector<std::uint8_t> req{1, 1, 1};
  const std::vector<double> decl(3, 0.0);
  std::vector<double> out(3);
  policy.allocate(context(1, 100, req, decl), out);
  EXPECT_DOUBLE_EQ(out[0], 0);
  EXPECT_DOUBLE_EQ(out[1], 100);
  EXPECT_DOUBLE_EQ(out[2], 0);
}

TEST(SelfOnly, IdleSelfMeansNoAllocation) {
  SelfOnlyPolicy policy;
  const std::vector<std::uint8_t> req{1, 0, 1};
  const std::vector<double> decl(3, 0.0);
  std::vector<double> out(3);
  policy.allocate(context(1, 100, req, decl), out);
  EXPECT_DOUBLE_EQ(out[0] + out[1] + out[2], 0);
}

TEST(Coalition, SplitsAmongRequestingMembersOnly) {
  CoalitionPolicy policy({0, 2});
  const std::vector<std::uint8_t> req{1, 1, 1, 1};
  const std::vector<double> decl(4, 0.0);
  std::vector<double> out(4);
  policy.allocate(context(3, 100, req, decl), out);
  EXPECT_DOUBLE_EQ(out[0], 50);
  EXPECT_DOUBLE_EQ(out[1], 0);
  EXPECT_DOUBLE_EQ(out[2], 50);
  EXPECT_DOUBLE_EQ(out[3], 0);
}

TEST(Coalition, IdleCoalitionAllocatesNothing) {
  CoalitionPolicy policy({0, 2});
  const std::vector<std::uint8_t> req{0, 1, 0, 1};
  const std::vector<double> decl(4, 0.0);
  std::vector<double> out(4);
  policy.allocate(context(3, 100, req, decl), out);
  EXPECT_DOUBLE_EQ(out[0] + out[1] + out[2] + out[3], 0);
}

}  // namespace
}  // namespace fairshare::alloc
