// The streaming intake/executor split: event pre-validation, the
// WindowExecutor decorator's bit-identity with the synchronous path, the
// StreamReplay × ReplayEventStream equivalence for every producer/shard
// combination, flat out and paced (the golden streaming gate), event-log
// round-trips, retention of future-window events, prestage counters, and
// inline backpressure resolution on the consumer thread. The multi-threaded
// cases run under ThreadSanitizer in CI.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/dispatch_engine.h"
#include "core/engine_event.h"
#include "core/intake_stage.h"
#include "core/policy_registry.h"
#include "core/window_executor.h"
#include "gen/city_gen.h"
#include "graph/distance_oracle.h"
#include "obs/metrics_registry.h"
#include "serving/event_log.h"
#include "serving/event_source.h"
#include "serving/region_partitioner.h"
#include "serving/sharded_dispatch_engine.h"
#include "serving/streaming_replay.h"

namespace fm {
namespace {

struct Scenario {
  RoadNetwork network;
  std::vector<Vehicle> fleet;
  std::vector<Order> orders;
};

Scenario MakeScenario(std::uint64_t seed, int num_vehicles, int num_orders,
                      Seconds horizon) {
  Rng rng(seed);
  CityGenParams params;
  params.grid_width = 12;
  params.grid_height = 12;
  params.congestion = UrbanCongestion(1.8);
  Scenario s;
  s.network = GenerateGridCity(params, rng);
  for (int i = 0; i < num_vehicles; ++i) {
    Vehicle v;
    v.id = static_cast<VehicleId>(i);
    v.start_node = static_cast<NodeId>(rng.UniformInt(s.network.num_nodes()));
    s.fleet.push_back(v);
  }
  for (int i = 0; i < num_orders; ++i) {
    Order o;
    o.restaurant = static_cast<NodeId>(rng.UniformInt(s.network.num_nodes()));
    o.customer = static_cast<NodeId>(rng.UniformInt(s.network.num_nodes()));
    o.placed_at = 12 * 3600.0 + rng.UniformRange(0.0, horizon);
    o.prep_time = rng.UniformRange(120.0, 1200.0);
    o.items = rng.UniformIntRange(1, 4);
    s.orders.push_back(o);
  }
  std::sort(s.orders.begin(), s.orders.end(),
            [](const Order& a, const Order& b) {
              return a.placed_at < b.placed_at;
            });
  for (std::size_t i = 0; i < s.orders.size(); ++i) {
    s.orders[i].id = static_cast<OrderId>(i);
  }
  return s;
}

void ExpectWindowResultsEqual(const std::vector<WindowResult>& a,
                              const std::vector<WindowResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t w = 0; w < a.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    EXPECT_EQ(a[w].now, b[w].now);
    EXPECT_EQ(a[w].rejected, b[w].rejected);
    EXPECT_EQ(a[w].reshuffled_vehicles, b[w].reshuffled_vehicles);
    ASSERT_EQ(a[w].decision.assignments.size(),
              b[w].decision.assignments.size());
    for (std::size_t i = 0; i < a[w].decision.assignments.size(); ++i) {
      EXPECT_EQ(a[w].decision.assignments[i].vehicle,
                b[w].decision.assignments[i].vehicle);
      EXPECT_EQ(a[w].decision.assignments[i].orders,
                b[w].decision.assignments[i].orders);
    }
    ASSERT_EQ(a[w].reinstatements.size(), b[w].reinstatements.size());
    for (std::size_t i = 0; i < a[w].reinstatements.size(); ++i) {
      EXPECT_EQ(a[w].reinstatements[i].order, b[w].reinstatements[i].order);
      EXPECT_EQ(a[w].reinstatements[i].vehicle,
                b[w].reinstatements[i].vehicle);
    }
    EXPECT_EQ(a[w].decision.cost_evaluations,
              b[w].decision.cost_evaluations);
    EXPECT_EQ(a[w].decision_seconds, b[w].decision_seconds);
  }
}

Order ValidOrder(OrderId id = 1) {
  Order o;
  o.id = id;
  o.restaurant = 2;
  o.customer = 3;
  o.placed_at = 100.0;
  o.items = 2;
  o.prep_time = 300.0;
  return o;
}

// ---- Pre-validation ----

TEST(ValidEngineEventTest, AcceptsWellFormedEvents) {
  EXPECT_TRUE(ValidEngineEvent(OrderPlaced{ValidOrder()}));
  VehicleSnapshot snap;
  snap.id = 7;
  snap.location = 4;
  snap.next_destination = 4;
  EXPECT_TRUE(ValidEngineEvent(VehicleStateUpdate{snap, true}));
  EXPECT_TRUE(ValidEngineEvent(OrderDelivered{1, 2}));
  EXPECT_TRUE(ValidEngineEvent(OrderDelivered{1, kInvalidVehicle}));
  EXPECT_TRUE(ValidEngineEvent(VehicleRetired{3}));
}

TEST(ValidEngineEventTest, RejectsMalformedEvents) {
  {
    Order o = ValidOrder();
    o.id = kInvalidOrder;
    EXPECT_FALSE(ValidEngineEvent(OrderPlaced{o}));
  }
  {
    Order o = ValidOrder();
    o.restaurant = kInvalidNode;
    EXPECT_FALSE(ValidEngineEvent(OrderPlaced{o}));
  }
  {
    Order o = ValidOrder();
    o.customer = kInvalidNode;
    EXPECT_FALSE(ValidEngineEvent(OrderPlaced{o}));
  }
  {
    Order o = ValidOrder();
    o.items = 0;
    EXPECT_FALSE(ValidEngineEvent(OrderPlaced{o}));
  }
  {
    Order o = ValidOrder();
    o.prep_time = -1.0;
    EXPECT_FALSE(ValidEngineEvent(OrderPlaced{o}));
  }
  {
    VehicleSnapshot snap;  // both ids invalid
    EXPECT_FALSE(ValidEngineEvent(VehicleStateUpdate{snap, true}));
  }
  EXPECT_FALSE(ValidEngineEvent(OrderDelivered{kInvalidOrder, 2}));
  EXPECT_FALSE(ValidEngineEvent(VehicleRetired{kInvalidVehicle}));
}

// ---- IntakeStage ----

TEST(IntakeStageTest, ShedsInvalidEventsWithCounter) {
  IntakeOptions options;
  options.queue_capacity = 8;
  IntakeStage stage(options);
  Order bad = ValidOrder();
  bad.items = 0;
  EXPECT_EQ(stage.TryAbsorb({0.0, 0, OrderPlaced{bad}}),
            AbsorbResult::kDroppedInvalid);
  EXPECT_FALSE(stage.Absorb({0.0, 1, OrderPlaced{bad}}));
  EXPECT_EQ(stage.dropped_invalid(), 2u);
  EXPECT_EQ(stage.absorbed(), 0u);

  EXPECT_EQ(stage.TryAbsorb({0.0, 2, OrderPlaced{ValidOrder()}}),
            AbsorbResult::kStaged);
  EXPECT_EQ(stage.absorbed(), 1u);
  std::vector<StampedEvent> drained;
  EXPECT_EQ(stage.DrainInto(&drained), 1u);
}

TEST(IntakeStageTest, ReportsBackpressureWhenRingIsFull) {
  IntakeOptions options;
  options.queue_capacity = 2;
  IntakeStage stage(options);
  EXPECT_EQ(stage.TryAbsorb({0.0, 0, OrderPlaced{ValidOrder(1)}}),
            AbsorbResult::kStaged);
  EXPECT_EQ(stage.TryAbsorb({0.0, 1, OrderPlaced{ValidOrder(2)}}),
            AbsorbResult::kStaged);
  EXPECT_EQ(stage.TryAbsorb({0.0, 2, OrderPlaced{ValidOrder(3)}}),
            AbsorbResult::kBackpressure);
  std::vector<StampedEvent> drained;
  EXPECT_EQ(stage.DrainInto(&drained), 2u);
  EXPECT_EQ(stage.TryAbsorb({0.0, 3, OrderPlaced{ValidOrder(4)}}),
            AbsorbResult::kStaged);
}

TEST(IntakeStageTest, PrestageResolvesOrderLegsThroughTheOracle) {
  Scenario s = MakeScenario(42, 0, 0, 600.0);
  DistanceOracle oracle(&s.network, OracleBackend::kDijkstra);
  IntakeOptions options;
  options.queue_capacity = 16;
  options.prestage = true;
  options.oracle = &oracle;
  IntakeStage stage(options);
  Order o = ValidOrder();
  o.restaurant = 0;
  o.customer = 5;
  EXPECT_EQ(stage.TryAbsorb({0.0, 0, OrderPlaced{o}}), AbsorbResult::kStaged);
  VehicleSnapshot snap;
  snap.id = 1;
  snap.location = 0;
  EXPECT_EQ(stage.TryAbsorb({0.0, 1, VehicleStateUpdate{snap, true}}),
            AbsorbResult::kStaged);
  // Exactly the order was pre-routed; vehicle updates are not.
  EXPECT_EQ(stage.prestaged(), 1u);
}

// ---- WindowExecutor ----

// The decorator path: a simulator-style driver talking DispatchCore to the
// executor must get bit-identical windows to talking to the engine
// directly — the tentpole's "drop-in" guarantee.
TEST(WindowExecutorTest, DecoratorPathBitIdenticalToSynchronousEngine) {
  Scenario s = MakeScenario(1357, 6, 60, 1800.0);
  DistanceOracle oracle(&s.network, OracleBackend::kDijkstra);
  Config config;
  config.accumulation_window = 120.0;
  const Seconds start = 12 * 3600.0;

  std::unique_ptr<AssignmentPolicy> policy =
      PolicyRegistry::Global().Create("foodmatch", &oracle, config);
  DispatchEngine direct(policy.get(), config,
                        DispatchEngineOptions{.measure_wall_clock = false});
  const std::vector<StampedEvent> events =
      MakeBatchReplayEvents(s.fleet, s.orders, start);
  const std::vector<WindowResult> expected =
      ReplayEventStream(direct, events, start, start + 1800.0, 120.0);

  std::unique_ptr<AssignmentPolicy> policy2 =
      PolicyRegistry::Global().Create("foodmatch", &oracle, config);
  DispatchEngine engine(policy2.get(), config,
                        DispatchEngineOptions{.measure_wall_clock = false});
  WindowExecutorOptions options;
  options.queue_capacity = 8;  // tiny ring: Handle must pump inline
  options.oracle = &oracle;
  WindowExecutor executor(&engine, options);
  const std::vector<WindowResult> streamed =
      ReplayEventStream(executor, events, start, start + 1800.0, 120.0);
  ExpectWindowResultsEqual(expected, streamed);
  EXPECT_EQ(executor.dropped_invalid(), 0u);
  EXPECT_EQ(executor.retained_events(), 0u);
}

TEST(WindowExecutorTest, RetainsEventsStampedBeyondTheClosingWindow) {
  Scenario s = MakeScenario(7, 1, 0, 600.0);
  DistanceOracle oracle(&s.network, OracleBackend::kDijkstra);
  Config config;
  config.accumulation_window = 100.0;
  std::unique_ptr<AssignmentPolicy> policy =
      PolicyRegistry::Global().Create("greedy", &oracle, config);
  DispatchEngine engine(policy.get(), config,
                        DispatchEngineOptions{.measure_wall_clock = false});
  WindowExecutor executor(&engine, WindowExecutorOptions{});

  Order early = ValidOrder(1);
  early.placed_at = 100.0;
  Order late = ValidOrder(2);
  late.placed_at = 500.0;
  ASSERT_TRUE(executor.Submit({100.0, 0, OrderPlaced{early}}));
  ASSERT_TRUE(executor.Submit({500.0, 1, OrderPlaced{late}}));
  EXPECT_EQ(executor.pending_orders(), 2u);  // both staged

  executor.CloseWindow(200.0);
  // The early order reached the engine's pool (no vehicles — it stays
  // pending there); the late one is retained in the executor.
  EXPECT_EQ(executor.retained_events(), 1u);
  EXPECT_EQ(executor.pending_orders(), 2u);
  EXPECT_EQ(engine.pending_orders(), 1u);

  executor.CloseWindow(600.0);
  EXPECT_EQ(executor.retained_events(), 0u);
  EXPECT_EQ(engine.pending_orders(), 2u);
}

// With a registry attached every stage observes intake.absorb_seconds once
// per accepted absorb — not for shed events, not for a backpressured try —
// including from concurrent producers.
TEST(WindowExecutorTest, AbsorbHistogramCountsEveryAbsorbedEvent) {
  const auto absorb_count = [](const obs::MetricsRegistry& registry) {
    const obs::MetricsSnapshot snap = registry.Snapshot();
    const obs::InstrumentValue* v = snap.Find("intake.absorb_seconds");
    return v == nullptr ? ~std::uint64_t{0} : v->histogram.count;
  };
  Scenario s = MakeScenario(99, 4, 40, 1800.0);
  DistanceOracle oracle(&s.network, OracleBackend::kDijkstra);
  Config config;
  config.accumulation_window = 120.0;
  std::unique_ptr<AssignmentPolicy> policy =
      PolicyRegistry::Global().Create("greedy", &oracle, config);
  DispatchEngine engine(policy.get(), config,
                        DispatchEngineOptions{.measure_wall_clock = false});
  {
    obs::MetricsRegistry registry;
    WindowExecutorOptions options;
    options.queue_capacity = 2;
    options.metrics = &registry;
    WindowExecutor executor(&engine, options);
    Order bad = ValidOrder(7);
    bad.items = 0;
    EXPECT_FALSE(executor.Submit({0.0, 0, OrderPlaced{bad}}));
    EXPECT_EQ(executor.TrySubmit({0.0, 1, OrderPlaced{ValidOrder(1)}}),
              AbsorbResult::kStaged);
    EXPECT_EQ(executor.TrySubmit({0.0, 2, OrderPlaced{ValidOrder(2)}}),
              AbsorbResult::kStaged);
    EXPECT_EQ(executor.TrySubmit({0.0, 3, OrderPlaced{ValidOrder(3)}}),
              AbsorbResult::kBackpressure);
    EXPECT_EQ(executor.absorbed(), 2u);
    EXPECT_EQ(absorb_count(registry), executor.absorbed());
  }

  obs::MetricsRegistry registry;
  const Seconds start = 12 * 3600.0;
  const std::vector<StampedEvent> events =
      MakeBatchReplayEvents(s.fleet, s.orders, start);
  StreamReplayStats stats;
  StreamReplayOptions options;
  options.producers = 4;
  options.stages = 2;
  options.queue_capacity = 8;  // small rings: blocking Absorb waits
  options.oracle = &oracle;
  options.metrics = &registry;
  options.stats = &stats;
  std::unique_ptr<AssignmentPolicy> policy2 =
      PolicyRegistry::Global().Create("greedy", &oracle, config);
  DispatchEngine streamed(policy2.get(), config,
                          DispatchEngineOptions{.measure_wall_clock = false});
  StreamReplay(streamed, events, start, start + 1800.0, 120.0, options);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  const obs::InstrumentValue* absorbed = snap.Find("intake.absorbed");
  ASSERT_NE(absorbed, nullptr);
  EXPECT_EQ(absorbed->counter, stats.events_submitted);
  EXPECT_EQ(absorb_count(registry), absorbed->counter);
}

// ---- The golden streaming gate ----

// StreamReplay must reproduce the synchronous replay bit for bit for every
// combination of shards and producer threads — the determinism contract of
// the whole intake path.
TEST(StreamingEquivalenceTest, BitIdenticalAcrossProducersAndShards) {
  Scenario s = MakeScenario(2468, 8, 70, 1800.0);
  DistanceOracle oracle(&s.network, OracleBackend::kDijkstra);
  const Seconds start = 12 * 3600.0;
  const Seconds end = start + 1800.0;
  const Seconds delta = 120.0;
  const std::vector<StampedEvent> events =
      MakeBatchReplayEvents(s.fleet, s.orders, start);

  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    Config config;
    config.accumulation_window = delta;
    config.shards = shards;
    GridRegionPartitioner partitioner(&s.network, shards);

    auto make_core = [&](std::unique_ptr<AssignmentPolicy>* policy,
                         std::unique_ptr<DispatchEngine>* engine,
                         std::unique_ptr<ShardedDispatchEngine>* sharded)
        -> DispatchCore* {
      if (shards > 1) {
        ShardedEngineOptions options;
        options.engine.measure_wall_clock = false;
        *sharded = std::make_unique<ShardedDispatchEngine>(
            &partitioner, "foodmatch", &oracle, config, PolicyOptions{},
            options);
        return sharded->get();
      }
      *policy = PolicyRegistry::Global().Create("foodmatch", &oracle, config);
      *engine = std::make_unique<DispatchEngine>(
          policy->get(), config,
          DispatchEngineOptions{.measure_wall_clock = false});
      return engine->get();
    };

    std::unique_ptr<AssignmentPolicy> batch_policy;
    std::unique_ptr<DispatchEngine> batch_engine;
    std::unique_ptr<ShardedDispatchEngine> batch_sharded;
    DispatchCore* batch_core =
        make_core(&batch_policy, &batch_engine, &batch_sharded);
    const std::vector<WindowResult> expected =
        ReplayEventStream(*batch_core, events, start, end, delta);

    // Flat out, and paced so the 1 800 s horizon replays in ~0.1 s of wall
    // clock (fmserve --speedup): pacing only moves wall time, never results.
    for (const int producers : {1, 4}) {
      for (const double speedup : {0.0, 18000.0}) {
        SCOPED_TRACE("producers " + std::to_string(producers) + " speedup " +
                     std::to_string(speedup));
        std::unique_ptr<AssignmentPolicy> policy;
        std::unique_ptr<DispatchEngine> engine;
        std::unique_ptr<ShardedDispatchEngine> sharded;
        DispatchCore* core = make_core(&policy, &engine, &sharded);

        StreamReplayStats stats;
        StreamReplayOptions options;
        options.producers = producers;
        options.stages = shards;
        options.queue_capacity = 32;  // small rings: exercise backpressure
        options.prestage = true;
        options.oracle = &oracle;
        if (shards > 1) options.router = MakeRegionStageRouter(&partitioner);
        options.speedup = speedup;
        options.stats = &stats;
        const std::vector<WindowResult> streamed =
            StreamReplay(*core, events, start, end, delta, options);
        ExpectWindowResultsEqual(expected, streamed);
        EXPECT_EQ(stats.events_submitted, events.size());
        EXPECT_EQ(stats.orders_submitted, s.orders.size());
        EXPECT_EQ(stats.dropped_invalid, 0u);
        // The last window closes no earlier than its paced boundary.
        if (speedup > 0.0) {
          EXPECT_GE(stats.wall_seconds, (end - start) / speedup);
        }
      }
    }
  }
}

// ---- Event log ----

TEST(EventLogTest, RoundTripPreservesStreamAndResults) {
  Scenario s = MakeScenario(99, 4, 30, 1200.0);
  const Seconds start = 12 * 3600.0;
  const std::vector<StampedEvent> events =
      MakeBatchReplayEvents(s.fleet, s.orders, start);

  const std::string path = ::testing::TempDir() + "intake_roundtrip.log";
  WriteEventLog(path, events);
  const std::vector<StampedEvent> reread =
      ReadEventLog(path, s.network.num_nodes());
  std::remove(path.c_str());

  ASSERT_EQ(reread.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(reread[i].timestamp, events[i].timestamp);
    EXPECT_EQ(reread[i].sequence, events[i].sequence);
    ASSERT_EQ(reread[i].event.index(), events[i].event.index());
    if (const auto* placed = std::get_if<OrderPlaced>(&events[i].event)) {
      EXPECT_EQ(std::get<OrderPlaced>(reread[i].event).order, placed->order);
    } else if (const auto* update =
                   std::get_if<VehicleStateUpdate>(&events[i].event)) {
      const auto& snap = std::get<VehicleStateUpdate>(reread[i].event);
      EXPECT_EQ(snap.snapshot.id, update->snapshot.id);
      EXPECT_EQ(snap.snapshot.location, update->snapshot.location);
      EXPECT_EQ(snap.on_duty, update->on_duty);
    }
  }

  // And the replayed decisions agree, which is the property that matters.
  DistanceOracle oracle(&s.network, OracleBackend::kDijkstra);
  Config config;
  config.accumulation_window = 120.0;
  auto run = [&](const std::vector<StampedEvent>& stream) {
    std::unique_ptr<AssignmentPolicy> policy =
        PolicyRegistry::Global().Create("foodmatch", &oracle, config);
    DispatchEngine engine(policy.get(), config,
                          DispatchEngineOptions{.measure_wall_clock = false});
    return ReplayEventStream(engine, stream, start, start + 1200.0, 120.0);
  };
  ExpectWindowResultsEqual(run(events), run(reread));
}

TEST(EventLogDeathTest, MalformedLineDies) {
  const std::string path = ::testing::TempDir() + "intake_malformed.log";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# foodmatch-event-log-v1\nX,0,0.0,1\n", f);
    std::fclose(f);
  }
  EXPECT_DEATH(ReadEventLog(path, 10), "malformed event log line 2");
  std::remove(path.c_str());
}

// A node id the network does not have must stop the read, naming the line,
// before it reaches the oracle (where it would index out of bounds).
TEST(EventLogDeathTest, OutOfRangeNodeDies) {
  const std::string path = ::testing::TempDir() + "intake_bad_node.log";
  for (const char* restaurant : {"10", "4000000000"}) {
    {
      std::FILE* f = std::fopen(path.c_str(), "w");
      ASSERT_NE(f, nullptr);
      std::fprintf(f, "# foodmatch-event-log-v1\nO,0,36000,0,%s,1,1,300\n",
                   restaurant);
      std::fclose(f);
    }
    EXPECT_DEATH(ReadEventLog(path, 10),
                 std::string("line 2: node id ") + restaurant +
                     " out of range");
  }
  std::remove(path.c_str());
}

TEST(EventLogDeathTest, TrailingCharactersDie) {
  const std::string path = ::testing::TempDir() + "intake_trailing.log";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("V,0,36000,0,5,1,garbage\n", f);
    std::fclose(f);
  }
  EXPECT_DEATH(ReadEventLog(path, 10),
               "line 1: characters after the last field");
  std::remove(path.c_str());
}

TEST(EventLogDeathTest, OutOfOrderStreamDies) {
  const std::string path = ::testing::TempDir() + "intake_unordered.log";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("R,5,100.0,1\nR,4,50.0,2\n", f);
    std::fclose(f);
  }
  EXPECT_DEATH(ReadEventLog(path, 10), "stream order");
  std::remove(path.c_str());
}

// ---- Prestage neutrality ----

TEST(StreamingEquivalenceTest, PrestageToggleDoesNotChangeResults) {
  Scenario s = MakeScenario(555, 5, 40, 1200.0);
  DistanceOracle oracle(&s.network, OracleBackend::kDijkstra);
  const Seconds start = 12 * 3600.0;
  const std::vector<StampedEvent> events =
      MakeBatchReplayEvents(s.fleet, s.orders, start);
  Config config;
  config.accumulation_window = 120.0;
  auto run = [&](bool prestage) {
    std::unique_ptr<AssignmentPolicy> policy =
        PolicyRegistry::Global().Create("foodmatch", &oracle, config);
    DispatchEngine engine(policy.get(), config,
                          DispatchEngineOptions{.measure_wall_clock = false});
    StreamReplayOptions options;
    options.producers = 2;
    options.prestage = prestage;
    options.oracle = prestage ? &oracle : nullptr;
    return StreamReplay(engine, events, start, start + 1200.0, 120.0,
                        options);
  };
  ExpectWindowResultsEqual(run(true), run(false));
}

}  // namespace
}  // namespace fm
