// Differential goldens for the engines that drive the Eq. (2) ledger
// outside the slotted simulator's own feedback loop:
//  * sim::replay_sim's JSON report for the Poisson, Zipf and flash-crowd
//    traces that replay_agreement_test also replays against a live server;
//  * a per-slot dump of FederationSim's shares and ledgers for the
//    two-shard scenario of federation_sim_test (local service, gossip, the
//    remote fold, then contention at the shard that never served).
// Any change to the ledger arithmetic that moves a printed digit shows up
// here as a byte diff.
//
// Unlike the importer goldens of workload_test.cpp these depend on the
// trace generators' libm calls and on double rounding, so they pin one
// platform (x86-64, glibc).  Regenerate with
//   FAIRSHARE_REGEN_GOLDEN=1 ./sim_ledger_golden_test
// and review the diff before committing.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "coding/params.hpp"
#include "net/replay_driver.hpp"
#include "sim/federation.hpp"
#include "golden.hpp"
#include "sim/replay.hpp"
#include "sim/workload.hpp"

namespace {

using namespace fairshare;
using golden::compare_golden;

// The replay_agreement_test geometry: 3 users, 12-slot horizon, 20000-byte
// files at 8 Mbit/s in 50 ms slots over GF(2^32) 1 KiB messages.
constexpr std::uint64_t kFileBytes = 20000;

std::string replay_json(const sim::WorkloadTrace& trace) {
  const coding::CodingParams params{gf::FieldId::gf2_32, 256};
  coding::FileInfo shape;
  shape.original_bytes = kFileBytes;
  shape.params = params;
  shape.k = coding::chunks_for_bytes(kFileBytes, params);
  sim::SimReplayConfig config;
  config.rate_kbps = 8000.0;
  config.slot_seconds = 0.05;
  config.quantize_bytes = kFileBytes;
  config.wire_overhead = net::wire_overhead_factor(shape);
  return sim::to_json(sim::replay_sim(trace, config));
}

TEST(LedgerGolden, ReplaySimPoisson) {
  sim::PoissonConfig config;
  config.users = 3;
  config.horizon = 12;
  config.events_per_user_slot = 0.35;
  config.mean_bytes = kFileBytes;
  config.seed = 1;
  compare_golden(replay_json(sim::poisson_trace(config)),
                 "replay_sim_poisson.json");
}

TEST(LedgerGolden, ReplaySimZipf) {
  sim::ZipfConfig config;
  config.users = 3;
  config.horizon = 12;
  config.events = 24;
  config.mean_bytes = kFileBytes;
  config.seed = 1;
  compare_golden(replay_json(sim::zipf_trace(config)), "replay_sim_zipf.json");
}

TEST(LedgerGolden, ReplaySimFlashCrowd) {
  sim::FlashCrowdConfig config;
  config.users = 3;
  config.horizon = 12;
  config.mean_bytes = kFileBytes;
  config.seed = 1;
  compare_golden(replay_json(sim::flash_crowd_trace(config)),
                 "replay_sim_flash.json");
}

// federation_sim_test's two_shard_config(4): user 0 is served by shard 0
// for 50 slots, then both users contend at shard 1.  One line per slot:
// the slot, then last_share and policy_ledger for every (shard, user),
// printed round-trip exact.
TEST(LedgerGolden, FederationSimTwoShards) {
  sim::FederationConfig config;
  config.shards = 2;
  config.users = 2;
  config.shard_capacity_kbps = 1000.0;
  config.gossip_period_slots = 4;
  sim::FederationSim fed(config);
  const std::vector<std::vector<std::uint8_t>> phase1 = {{1, 0}, {0, 0}};
  const std::vector<std::vector<std::uint8_t>> phase2 = {{0, 0}, {1, 1}};
  std::string dump;
  char buf[64];
  for (std::uint64_t t = 0; t < 70; ++t) {
    fed.step(t < 50 ? phase1 : phase2);
    dump += std::to_string(t);
    for (std::size_t s = 0; s < config.shards; ++s)
      for (std::size_t u = 0; u < config.users; ++u) {
        std::snprintf(buf, sizeof buf, " %.17g %.17g", fed.last_share(s, u),
                      fed.policy_ledger(s, u));
        dump += buf;
      }
    dump += '\n';
  }
  compare_golden(dump, "federation_sim_two_shards.txt");
}

}  // namespace
