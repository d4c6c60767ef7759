// The stress-workload subsystem: ZipfSampler distribution properties,
// ApplyScenario overlay algebra (surge folding, city multiplier),
// flash-crowd locality, shift-churn stream well-formedness
// (announce-before-retire, canonical ordering, bare pings), byte-identical
// regeneration with seed sensitivity, event-log round-trips, streamed ×
// sync replay equivalence under backpressure, and shard migrations driven
// by churn.
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/dispatch_engine.h"
#include "core/engine_event.h"
#include "core/fingerprint.h"
#include "core/policy_registry.h"
#include "gen/profiles.h"
#include "gen/workload.h"
#include "geo/geo.h"
#include "graph/distance_oracle.h"
#include "serving/event_log.h"
#include "serving/event_source.h"
#include "serving/region_partitioner.h"
#include "serving/sharded_dispatch_engine.h"
#include "serving/streaming_replay.h"
#include "stress/scenario.h"
#include "stress/stress_gen.h"

namespace fm {
namespace {

// All stress instances in this suite run a heavily scaled-down City A (the
// bench sweeps the real sizes); the determinism properties under test are
// size-independent.
constexpr double kTestScale = 160.0;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---- ZipfSampler ----

TEST(ZipfSamplerTest, ExponentZeroDegeneratesToUniform) {
  const ZipfSampler sampler(10, 0.0);
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_DOUBLE_EQ(sampler.Probability(r), 0.1);
  }
}

TEST(ZipfSamplerTest, ProbabilitiesDecreaseByRankAndSumToOne) {
  const ZipfSampler sampler(20, 1.1);
  double total = 0.0;
  for (std::size_t r = 0; r < 20; ++r) {
    total += sampler.Probability(r);
    if (r > 0) {
      EXPECT_LT(sampler.Probability(r), sampler.Probability(r - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ZipfSamplerTest, ObservedFrequenciesMatchProbabilities) {
  const ZipfSampler sampler(20, 1.1);
  Rng rng(7);
  constexpr int kDraws = 30000;
  std::vector<int> counts(20, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[sampler.Sample(rng)];
  for (std::size_t r = 0; r < 20; ++r) {
    const double freq = static_cast<double>(counts[r]) / kDraws;
    // ~5 standard errors at the head rank (p ≈ 0.34, N = 30000).
    EXPECT_NEAR(freq, sampler.Probability(r), 0.015) << "rank " << r;
  }
}

TEST(ZipfSamplerTest, DeterministicGivenTheRngStream) {
  const ZipfSampler sampler(50, 1.3);
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(sampler.Sample(a), sampler.Sample(b)) << "draw " << i;
  }
}

// ---- Scenario overlays ----

TEST(ScenarioOverlayTest, SurgeScalesExpectedPerSlotVolumeExactly) {
  const CityProfile base = CityAProfile(40.0);
  ScenarioSpec spec;
  spec.name = "test-surge";
  spec.surges.push_back(
      {.first_slot = 12, .last_slot = 13, .multiplier = 3.0});
  const CityProfile overlaid = ApplyScenario(base, spec);
  EXPECT_EQ(overlaid.name, base.name + "+test-surge");

  const std::array<double, kSlotsPerDay> before = ExpectedOrdersPerSlot(base);
  const std::array<double, kSlotsPerDay> after =
      ExpectedOrdersPerSlot(overlaid);
  for (int s = 0; s < kSlotsPerDay; ++s) {
    const double mult = (s == 12 || s == 13) ? 3.0 : 1.0;
    // Exact up to the integer rounding of the rescaled orders_per_day.
    EXPECT_NEAR(after[s], before[s] * mult, 0.01 * before[s] * mult + 1e-9)
        << "slot " << s;
  }
}

TEST(ScenarioOverlayTest, CityMultiplierScalesCountsLinearlyAndGridBySqrt) {
  const CityProfile base = CityAProfile(40.0);
  ScenarioSpec spec;
  spec.name = "x4";
  spec.city_multiplier = 4.0;
  const CityProfile overlaid = ApplyScenario(base, spec);
  EXPECT_EQ(overlaid.num_restaurants, base.num_restaurants * 4);
  EXPECT_EQ(overlaid.num_vehicles, base.num_vehicles * 4);
  EXPECT_EQ(overlaid.orders_per_day, base.orders_per_day * 4);
  EXPECT_EQ(overlaid.city.grid_width, base.city.grid_width * 2);
  EXPECT_EQ(overlaid.city.grid_height, base.city.grid_height * 2);
}

TEST(ScenarioOverlayTest, RegistryNamesRoundTripThroughLookup) {
  const std::vector<std::string>& names = StressScenarioNames();
  ASSERT_EQ(names.size(), 6u);
  for (const std::string& name : names) {
    EXPECT_TRUE(IsStressScenario(name));
    EXPECT_EQ(StressScenario(name).name, name);
  }
  EXPECT_FALSE(IsStressScenario("no-such-scenario"));
}

// ---- Flash crowds ----

TEST(StressGenTest, FlashCrowdBurstsAreLocalToTheHub) {
  const CityProfile profile = CityAProfile(kTestScale);
  StressGenOptions options;
  options.start_time = 11.0 * 3600.0;
  options.end_time = 12.5 * 3600.0;
  const ScenarioSpec spec = StressScenario("flash-crowd");
  const StressWorkload sw = GenerateStressWorkload(profile, spec, options);
  EXPECT_GT(sw.burst_orders, 0u);
  EXPECT_EQ(sw.order_events, sw.base.orders.size());

  const FlashCrowd& burst = spec.bursts[0];
  const std::vector<std::size_t> candidates =
      BurstCandidateRestaurants(sw.base, burst);
  ASSERT_FALSE(candidates.empty());
  const std::size_t hub = static_cast<std::size_t>(burst.hub) %
                          sw.base.restaurants.size();
  const LatLon& center =
      sw.base.network.node_position(sw.base.restaurants[hub]);
  for (std::size_t r : candidates) {
    EXPECT_LE(Haversine(center, sw.base.network.node_position(
                                    sw.base.restaurants[r])),
              burst.radius_m);
  }
}

// ---- Shift churn: stream well-formedness ----

TEST(StressGenTest, ShiftChurnStreamIsWellFormed) {
  const CityProfile profile = CityAProfile(kTestScale);
  StressGenOptions options;
  options.start_time = 10.0 * 3600.0;
  options.end_time = 13.5 * 3600.0;
  const StressWorkload sw = GenerateStressWorkload(
      profile, StressScenario("shift-change"), options);
  EXPECT_GT(sw.retirements, 0u);
  EXPECT_GT(sw.vehicle_updates, sw.base.fleet.size());

  std::uint64_t orders = 0, updates = 0, retires = 0;
  std::unordered_set<VehicleId> active;
  for (std::size_t i = 0; i < sw.events.size(); ++i) {
    const StampedEvent& e = sw.events[i];
    ASSERT_EQ(e.sequence, i);  // canonical sequences: dense 0..n-1
    if (i > 0) ASSERT_GE(e.timestamp, sw.events[i - 1].timestamp);
    ASSERT_GE(e.timestamp, options.start_time);
    ASSERT_LE(e.timestamp, options.end_time);
    if (const auto* u = std::get_if<VehicleStateUpdate>(&e.event)) {
      // Stress streams are gateway-style: every update is a bare snapshot
      // (the engine's own in-flight bookkeeping is authoritative).
      ASSERT_TRUE(u->snapshot.picked.empty());
      ASSERT_TRUE(u->snapshot.unpicked.empty());
      active.insert(u->snapshot.id);
      ++updates;
    } else if (const auto* r = std::get_if<VehicleRetired>(&e.event)) {
      ASSERT_EQ(active.count(r->vehicle), 1u)
          << "retirement without a preceding announcement, event " << i;
      active.erase(r->vehicle);
      ++retires;
    } else if (std::get_if<OrderPlaced>(&e.event) != nullptr) {
      ++orders;
    }
  }
  EXPECT_EQ(orders, sw.order_events);
  EXPECT_EQ(updates, sw.vehicle_updates);
  EXPECT_EQ(retires, sw.retirements);
}

// ---- Determinism: byte-identical regeneration ----

std::string GenerateLogBytes(const CityProfile& profile,
                             const std::string& scenario, std::uint64_t seed,
                             const std::string& tag) {
  StressGenOptions options;
  options.seed = seed;
  options.start_time = 11.0 * 3600.0;
  options.end_time = 12.5 * 3600.0;
  const StressWorkload sw =
      GenerateStressWorkload(profile, StressScenario(scenario), options);
  const std::string path = ::testing::TempDir() + "stress_" + tag + ".log";
  WriteEventLog(path, sw.events);
  std::string bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  EXPECT_FALSE(bytes.empty());
  return bytes;
}

TEST(StressGenTest, RegenerationIsByteIdenticalAndSeedSensitive) {
  const CityProfile profile = CityAProfile(kTestScale);
  // lunch-rush draws nothing from the overlay RNG streams (pure surge), so
  // it pins the seed-folding into the base generator; shift-change covers
  // the overlay streams.
  for (const char* scenario : {"lunch-rush", "shift-change"}) {
    SCOPED_TRACE(scenario);
    const std::string a = GenerateLogBytes(profile, scenario, 0, "a");
    const std::string b = GenerateLogBytes(profile, scenario, 0, "b");
    EXPECT_EQ(a, b);
    const std::string c = GenerateLogBytes(profile, scenario, 1, "c");
    EXPECT_NE(a, c);
  }
}

TEST(StressGenTest, EventLogRoundTripIsLossless) {
  const CityProfile profile = CityAProfile(kTestScale);
  StressGenOptions options;
  options.start_time = 11.0 * 3600.0;
  options.end_time = 12.5 * 3600.0;
  const StressWorkload sw = GenerateStressWorkload(
      profile, StressScenario("flash-crowd"), options);

  const std::string path1 = ::testing::TempDir() + "stress_rt1.log";
  const std::string path2 = ::testing::TempDir() + "stress_rt2.log";
  WriteEventLog(path1, sw.events);
  const std::vector<StampedEvent> reread = ReadEventLog(path1, sw.base.network.num_nodes());
  ASSERT_EQ(reread.size(), sw.events.size());
  // Re-serializing the parsed stream reproduces the file byte for byte —
  // the log IS the stream.
  WriteEventLog(path2, reread);
  EXPECT_EQ(ReadFileBytes(path1), ReadFileBytes(path2));
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

// ---- Replay: streamed equivalence under backpressure, churn migrations ----

TEST(StressReplayTest, BackpressuredStreamMatchesSyncReplayBitForBit) {
  const CityProfile profile = CityAProfile(kTestScale);
  StressGenOptions gen_options;
  gen_options.start_time = 10.0 * 3600.0;
  gen_options.end_time = 12.0 * 3600.0;
  const StressWorkload sw = GenerateStressWorkload(
      profile, StressScenario("shift-change"), gen_options);
  DistanceOracle oracle(&sw.base.network, OracleBackend::kDijkstra);
  Config config;
  config.accumulation_window = 180.0;

  std::unique_ptr<AssignmentPolicy> sync_policy =
      PolicyRegistry::Global().Create("foodmatch", &oracle, config);
  DispatchEngine sync_engine(
      sync_policy.get(), config,
      DispatchEngineOptions{.measure_wall_clock = false});
  const std::vector<WindowResult> expected =
      ReplayEventStream(sync_engine, sw.events, gen_options.start_time,
                        gen_options.end_time, 180.0);

  std::unique_ptr<AssignmentPolicy> stream_policy =
      PolicyRegistry::Global().Create("foodmatch", &oracle, config);
  DispatchEngine stream_engine(
      stream_policy.get(), config,
      DispatchEngineOptions{.measure_wall_clock = false});
  StreamReplayStats stats;
  StreamReplayOptions options;
  options.producers = 2;
  options.queue_capacity = 2;  // tiny ring: every window must block
  options.oracle = &oracle;
  options.stats = &stats;
  const std::vector<WindowResult> streamed =
      StreamReplay(stream_engine, sw.events, gen_options.start_time,
                   gen_options.end_time, 180.0, options);

  EXPECT_EQ(FingerprintWindowResults(expected),
            FingerprintWindowResults(streamed));
  EXPECT_EQ(expected.size(), streamed.size());
  EXPECT_GT(stats.blocked_pushes, 0u);
  EXPECT_EQ(stats.events_submitted, sw.events.size());
  EXPECT_EQ(stats.dropped_invalid, 0u);
}

TEST(StressReplayTest, ShiftChurnDrivesShardMigrations) {
  const CityProfile profile = CityAProfile(kTestScale);
  StressGenOptions gen_options;
  gen_options.start_time = 10.0 * 3600.0;
  gen_options.end_time = 12.0 * 3600.0;
  const StressWorkload sw = GenerateStressWorkload(
      profile, StressScenario("shift-change"), gen_options);
  EXPECT_GT(sw.retirements, 0u);  // group 0's shift ends inside the horizon

  DistanceOracle oracle(&sw.base.network, OracleBackend::kDijkstra);
  GridRegionPartitioner partitioner(&sw.base.network, 4);
  Config config;
  config.accumulation_window = 180.0;
  config.shards = 4;
  ShardedEngineOptions options;
  options.engine.measure_wall_clock = false;
  ShardedDispatchEngine engine(&partitioner, "greedy", &oracle, config,
                               PolicyOptions{}, options);
  ReplayEventStream(engine, sw.events, gen_options.start_time,
                    gen_options.end_time, 180.0);
  // Roaming pings move empty vehicles across region boundaries: the
  // retire-and-reannounce migration path must actually fire under churn.
  EXPECT_GT(engine.migrations(), 0u);
}

}  // namespace
}  // namespace fm
