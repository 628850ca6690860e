// Workload schema, DXT importer (against committed fixtures + goldens),
// and the synthetic generator families.
//
// Goldens cover only importer output — to_text of a parsed trace is pure
// integer formatting, stable across platforms.  Generator traces depend
// on libm (exp/cos/sqrt) and are checked by run-twice determinism and
// shape assertions instead of byte-for-byte files.
//
// Regenerate goldens after an intentional format change with
//   FAIRSHARE_REGEN_GOLDEN=1 ./sim_workload_test
// and review the diff before committing.
#include <gtest/gtest.h>

#include <string>

#include "golden.hpp"
#include "sim/workload.hpp"

#ifndef SIM_DATA_DIR
#define SIM_DATA_DIR "."
#endif

namespace {

using namespace fairshare;

std::string data_path(const std::string& file) {
  return std::string(SIM_DATA_DIR) + "/" + file;
}

using golden::compare_golden;

// ---------------------------------------------------------------- schema

TEST(WorkloadTrace, NormalizeSortsAndAggregates) {
  sim::WorkloadTrace trace;
  trace.add({2, 5, 100});
  trace.add({1, 3, 200});
  trace.add({1, 5, 50});
  EXPECT_FALSE(trace.is_sorted());
  trace.normalize();
  ASSERT_TRUE(trace.is_sorted());
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.events()[0].user_id, 1u);
  EXPECT_EQ(trace.events()[1].user_id, 1u);
  EXPECT_EQ(trace.events()[2].user_id, 2u);
  EXPECT_EQ(trace.horizon(), 6u);
  EXPECT_EQ(trace.total_bytes(), 350u);
  EXPECT_EQ(trace.user_bytes(1), 250u);
  EXPECT_EQ(trace.user_bytes(2), 100u);
  EXPECT_EQ(trace.users(), (std::vector<std::uint64_t>{1, 2}));
}

TEST(WorkloadTrace, QuantizedRoundsBytesUpToUnit) {
  sim::WorkloadTrace trace;
  trace.add({1, 0, 1});        // -> 1 file
  trace.add({1, 1, 20000});    // exactly one file, unchanged
  trace.add({2, 2, 20001});    // -> 2 files
  trace.normalize();
  const sim::WorkloadTrace q = trace.quantized(20000);
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q.events()[0].bytes, 20000u);
  EXPECT_EQ(q.events()[1].bytes, 20000u);
  EXPECT_EQ(q.events()[2].bytes, 40000u);
  // Original untouched.
  EXPECT_EQ(trace.total_bytes(), 1u + 20000u + 20001u);
}

// -------------------------------------------------------------- importer

TEST(DxtImporter, ValidFixtureMatchesGolden) {
  std::string error;
  sim::DxtStats stats;
  const auto trace =
      sim::load_dxt_file(data_path("valid.dxt"), 1.0, &error, &stats);
  ASSERT_TRUE(trace.has_value()) << error;
  EXPECT_EQ(stats.events, 6u);
  EXPECT_EQ(stats.skipped_zero, 0u);
  EXPECT_FALSE(stats.reordered);
  EXPECT_EQ(trace->users(), (std::vector<std::uint64_t>{1, 2, 3}));
  // start=0.60 at slot_seconds=1.0 lands in slot 0; 1.20/1.90 in slot 1.
  EXPECT_EQ(trace->horizon(), 4u);
  compare_golden(sim::to_text(*trace), "dxt_valid.txt");
}

TEST(DxtImporter, SubSecondSlotsRescaleArrivals) {
  std::string error;
  const auto trace = sim::load_dxt_file(data_path("valid.dxt"), 0.5, &error);
  ASSERT_TRUE(trace.has_value()) << error;
  // First record starts at 0.01s -> slot 0; last at 3.75s -> slot 7.
  EXPECT_EQ(trace->horizon(), 8u);
  EXPECT_EQ(trace->total_bytes(),
            65536u + 32768u + 16384u + 131072u + 8192u + 4096u);
}

TEST(DxtImporter, TruncatedLineFailsWithLineNumber) {
  std::string error;
  const auto trace = sim::load_dxt_file(data_path("truncated.dxt"), 1.0, &error);
  EXPECT_FALSE(trace.has_value());
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("expected 8 fields"), std::string::npos) << error;
}

TEST(DxtImporter, OutOfOrderFixtureIsSortedAndFlagged) {
  std::string error;
  sim::DxtStats stats;
  const auto trace =
      sim::load_dxt_file(data_path("out_of_order.dxt"), 1.0, &error, &stats);
  ASSERT_TRUE(trace.has_value()) << error;
  EXPECT_TRUE(stats.reordered);
  ASSERT_TRUE(trace->is_sorted());
  for (std::size_t i = 1; i < trace->size(); ++i)
    EXPECT_LE(trace->events()[i - 1].arrival_slot,
              trace->events()[i].arrival_slot);
  compare_golden(sim::to_text(*trace), "dxt_out_of_order.txt");
}

TEST(DxtImporter, DuplicateUsersMergeAndZeroLengthDrops) {
  std::string error;
  sim::DxtStats stats;
  const auto trace = sim::load_dxt_file(data_path("duplicate_users.dxt"), 1.0,
                                        &error, &stats);
  ASSERT_TRUE(trace.has_value()) << error;
  EXPECT_EQ(stats.events, 5u);
  EXPECT_EQ(stats.skipped_zero, 1u);  // rank 9's zero-length probe
  EXPECT_EQ(trace->users(), (std::vector<std::uint64_t>{7, 9}));
  EXPECT_EQ(trace->user_bytes(7), 30000u + 30000u + 10000u + 25000u);
  EXPECT_EQ(trace->user_bytes(9), 50000u);
  compare_golden(sim::to_text(*trace), "dxt_duplicate_users.txt");
}

TEST(DxtImporter, UnknownOpFails) {
  std::string error;
  const auto trace =
      sim::parse_dxt("X_POSIX 1 seek 0 0 4096 0.1 0.2\n", 1.0, &error);
  EXPECT_FALSE(trace.has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_NE(error.find("unknown op"), std::string::npos) << error;
}

TEST(DxtImporter, BadNumberFails) {
  std::string error;
  const auto trace =
      sim::parse_dxt("X_POSIX 1 read 0 0 4z96 0.1 0.2\n", 1.0, &error);
  EXPECT_FALSE(trace.has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(DxtImporter, EndBeforeStartFails) {
  std::string error;
  const auto trace =
      sim::parse_dxt("X_POSIX 1 read 0 0 4096 2.0 1.0\n", 1.0, &error);
  EXPECT_FALSE(trace.has_value());
  EXPECT_NE(error.find("end precedes start"), std::string::npos) << error;
}

TEST(DxtImporter, CommentsAndBlanksIgnored) {
  std::string error;
  const auto trace =
      sim::parse_dxt("# header\n\nX_POSIX 4 read 0 0 512 0.0 0.1\n", 1.0,
                     &error);
  ASSERT_TRUE(trace.has_value()) << error;
  EXPECT_EQ(trace->size(), 1u);
  EXPECT_EQ(trace->events()[0].user_id, 4u);
}

// ------------------------------------------------------------ generators

TEST(Generators, SameSeedSameTrace) {
  EXPECT_EQ(sim::poisson_trace({}).events(), sim::poisson_trace({}).events());
  EXPECT_EQ(sim::zipf_trace({}).events(), sim::zipf_trace({}).events());
  EXPECT_EQ(sim::flash_crowd_trace({}).events(),
            sim::flash_crowd_trace({}).events());
  EXPECT_EQ(sim::diurnal_trace({}).events(), sim::diurnal_trace({}).events());
}

TEST(Generators, DifferentSeedsDiffer) {
  sim::PoissonConfig a;
  sim::PoissonConfig b;
  b.seed = 2;
  EXPECT_NE(sim::poisson_trace(a).events(), sim::poisson_trace(b).events());
}

TEST(Generators, TracesAreNormalizedAndBounded) {
  const sim::WorkloadTrace traces[] = {
      sim::poisson_trace({}), sim::zipf_trace({}), sim::flash_crowd_trace({}),
      sim::diurnal_trace({})};
  for (const sim::WorkloadTrace& t : traces) {
    EXPECT_TRUE(t.is_sorted());
    EXPECT_FALSE(t.empty());
    for (const sim::WorkloadEvent& e : t.events()) {
      EXPECT_GE(e.user_id, 1u);
      EXPECT_GT(e.bytes, 0u);
    }
  }
}

TEST(Generators, FlashCrowdBurstLandsInBurstSlot) {
  sim::FlashCrowdConfig config;
  config.base_events_per_user_slot = 0.0;  // isolate the burst
  config.burst_slot = 8;
  config.burst_events = 12;
  const sim::WorkloadTrace trace = sim::flash_crowd_trace(config);
  ASSERT_EQ(trace.size(), 12u);
  for (const sim::WorkloadEvent& e : trace.events())
    EXPECT_EQ(e.arrival_slot, 8u);
  // Round-robin spread: every user participates.
  EXPECT_EQ(trace.users().size(), config.users);
}

TEST(Generators, DiurnalPeakBeatsTrough) {
  sim::DiurnalConfig config;
  config.users = 8;
  config.horizon = 96;
  config.period = 48;
  config.peak_events_per_user_slot = 0.5;
  config.trough_events_per_user_slot = 0.0;
  const sim::WorkloadTrace trace = sim::diurnal_trace(config);
  // Count arrivals near the peaks (period/2 and 3*period/2) vs troughs.
  std::size_t near_peak = 0;
  std::size_t near_trough = 0;
  for (const sim::WorkloadEvent& e : trace.events()) {
    const std::uint64_t phase = e.arrival_slot % config.period;
    if (phase >= 18 && phase < 30) ++near_peak;
    if (phase < 6 || phase >= 42) ++near_trough;
  }
  EXPECT_GT(near_peak, near_trough);
}

TEST(Generators, ZipfSkewsTowardLowRanks) {
  sim::ZipfConfig config;
  config.users = 8;
  config.events = 400;
  config.s = 1.4;
  const sim::WorkloadTrace trace = sim::zipf_trace(config);
  std::size_t head = 0;  // events on ranks 1-2
  for (const sim::WorkloadEvent& e : trace.events())
    if (e.user_id <= 2) ++head;
  EXPECT_GT(head * 2, trace.size());  // top quarter of ranks takes majority
}

// ----------------------------------------------------------- TraceDemand

TEST(TraceDemand, ClosedLoopBacklogAndDone) {
  sim::WorkloadTrace trace;
  trace.add({1, 2, 1000});
  trace.add({1, 5, 500});
  trace.add({2, 0, 999});  // another user's events are invisible to user 1
  trace.normalize();

  sim::TraceDemand demand(trace, 1);
  EXPECT_EQ(demand.total_bytes(), 1500u);
  EXPECT_FALSE(demand.requests(0));
  EXPECT_FALSE(demand.requests(1));
  EXPECT_TRUE(demand.requests(2));
  EXPECT_DOUBLE_EQ(demand.backlog(), 1000.0);

  // Over-delivery is clamped to what has arrived.
  EXPECT_DOUBLE_EQ(demand.deliver(1500.0), 1000.0);
  EXPECT_FALSE(demand.requests(3));
  EXPECT_FALSE(demand.done());  // slot-5 event still pending

  EXPECT_TRUE(demand.requests(5));
  EXPECT_DOUBLE_EQ(demand.deliver(200.0), 200.0);
  EXPECT_TRUE(demand.requests(5));  // re-query same slot is allowed
  EXPECT_DOUBLE_EQ(demand.deliver(300.0), 300.0);
  EXPECT_FALSE(demand.requests(6));
  EXPECT_TRUE(demand.done());
}

TEST(TraceDemand, UserWithNoEventsNeverRequests) {
  sim::WorkloadTrace trace;
  trace.add({1, 0, 100});
  trace.normalize();
  sim::TraceDemand demand(trace, 42);
  EXPECT_EQ(demand.total_bytes(), 0u);
  for (std::uint64_t slot = 0; slot < 8; ++slot)
    EXPECT_FALSE(demand.requests(slot));
  EXPECT_TRUE(demand.done());
}

}  // namespace
