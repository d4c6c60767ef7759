// The sharded serving layer: GridRegionPartitioner cell geometry (factoring,
// boundaries, out-of-bbox clamping), ShardedDispatchEngine event routing
// (order ownership, vehicle migration + in-flight pinning), the K=1
// bit-for-bit equivalence gate against a single DispatchEngine, K>1
// determinism across thread counts, the EdgeCache resident-state gauges, and
// rolling-horizon bounded state with retirement events.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dispatch_engine.h"
#include "core/edge_cache.h"
#include "core/matching_policy.h"
#include "core/policy_registry.h"
#include "gen/city_gen.h"
#include "graph/distance_oracle.h"
#include "obs/metrics_registry.h"
#include "serving/event_source.h"
#include "serving/region_partitioner.h"
#include "serving/sharded_dispatch_engine.h"

namespace fm {
namespace {

// A policy that never assigns, for routing tests where only the router's
// bookkeeping matters. Registered under "test-noop" so the sharded engine
// can build it by name.
class NoopPolicy : public AssignmentPolicy {
 public:
  std::string name() const override { return "test-noop"; }
  bool wants_reshuffle() const override { return false; }
  AssignmentDecision Assign(const std::vector<Order>&,
                            const std::vector<VehicleSnapshot>&,
                            Seconds) override {
    return {};
  }
};

const PolicyRegistrar kNoopRegistrar(
    "test-noop",
    [](const DistanceOracle*, const Config&, const PolicyOptions&) {
      return std::make_unique<NoopPolicy>();
    });

// Five nodes spanning the unit-ish box [0, 0.9]²: the four corners plus the
// exact cell-boundary point of a 2×2 grid. Connected so oracles (unused by
// the noop policy) stay constructible.
RoadNetwork BuildQuadNetwork() {
  RoadNetwork::Builder b;
  b.AddNode({0.0, 0.0});    // 0: south-west
  b.AddNode({0.0, 0.9});    // 1: south-east
  b.AddNode({0.9, 0.0});    // 2: north-west
  b.AddNode({0.9, 0.9});    // 3: north-east
  b.AddNode({0.45, 0.45});  // 4: the 2×2 boundary corner
  for (NodeId u = 0; u + 1 < 5; ++u) {
    b.AddEdgeConstant(u, u + 1, 1000.0, 60.0);
    b.AddEdgeConstant(u + 1, u, 1000.0, 60.0);
  }
  return b.Build();
}

Order MakeOrder(OrderId id, NodeId restaurant, Seconds placed) {
  Order o;
  o.id = id;
  o.restaurant = restaurant;
  o.customer = restaurant;
  o.placed_at = placed;
  return o;
}

VehicleSnapshot MakeSnapshot(VehicleId id, NodeId at) {
  VehicleSnapshot v;
  v.id = id;
  v.location = at;
  v.next_destination = at;
  return v;
}

// ---- GridRegionPartitioner ----

TEST(GridRegionPartitionerTest, FactorsShardCountIntoNearSquareGrid) {
  RoadNetwork net = BuildQuadNetwork();
  struct Case {
    int shards, rows, cols;
  };
  for (const Case& c : std::vector<Case>{
           {1, 1, 1}, {2, 1, 2}, {3, 1, 3}, {4, 2, 2}, {5, 1, 5},
           {6, 2, 3}, {8, 2, 4}, {9, 3, 3}, {12, 3, 4}}) {
    GridRegionPartitioner p(&net, c.shards);
    EXPECT_EQ(p.num_shards(), c.shards);
    EXPECT_EQ(p.rows(), c.rows) << c.shards;
    EXPECT_EQ(p.cols(), c.cols) << c.shards;
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      EXPECT_GE(p.ShardOfNode(n), 0);
      EXPECT_LT(p.ShardOfNode(n), c.shards);
    }
  }
}

TEST(GridRegionPartitionerTest, QuadrantGridAssignsExpectedCells) {
  RoadNetwork net = BuildQuadNetwork();
  GridRegionPartitioner p(&net, 4);  // 2×2, cell 0.45° per axis
  EXPECT_EQ(p.min_corner(), (LatLon{0.0, 0.0}));
  EXPECT_EQ(p.max_corner(), (LatLon{0.9, 0.9}));
  EXPECT_EQ(p.ShardOfNode(0), 0);  // (0, 0):     row 0, col 0
  EXPECT_EQ(p.ShardOfNode(1), 1);  // (0, 0.9):   row 0, col 1
  EXPECT_EQ(p.ShardOfNode(2), 2);  // (0.9, 0):   row 1, col 0
  EXPECT_EQ(p.ShardOfNode(3), 3);  // (0.9, 0.9): row 1, col 1
  // A point exactly on the cell boundary belongs to the upper cell
  // (half-open intervals [min + i·cell, min + (i+1)·cell)).
  EXPECT_EQ(p.ShardOfNode(4), 3);  // (0.45, 0.45)
  EXPECT_EQ(p.ShardOfPosition({0.45, 0.0}), 2);
  EXPECT_EQ(p.ShardOfPosition({0.0, 0.45}), 1);
}

TEST(GridRegionPartitionerTest, OutOfBoundingBoxPositionsClampToEdgeCells) {
  RoadNetwork net = BuildQuadNetwork();
  GridRegionPartitioner p(&net, 4);
  EXPECT_EQ(p.ShardOfPosition({-90.0, -180.0}), 0);
  EXPECT_EQ(p.ShardOfPosition({90.0, 180.0}), 3);
  EXPECT_EQ(p.ShardOfPosition({-90.0, 180.0}), 1);
  EXPECT_EQ(p.ShardOfPosition({90.0, -180.0}), 2);
  // The box's own max corner clamps into the last cell, not past it.
  EXPECT_EQ(p.ShardOfPosition(p.max_corner()), 3);
}

TEST(GridRegionPartitionerTest, FlatAxisSplitsAlongTheSpreadAxisOnly) {
  // All nodes share one latitude: a 2×2 factoring would leave row 1 (and
  // with it half the shards) unreachable, so the grid must become 1×4
  // strips along the spread (longitude) axis.
  RoadNetwork::Builder b;
  b.AddNode({0.0, 0.0});
  b.AddNode({0.0, 0.3});
  b.AddNode({0.0, 0.6});
  b.AddNode({0.0, 0.9});
  b.AddEdgeConstant(0, 1, 1000.0, 60.0);
  RoadNetwork net = b.Build();
  GridRegionPartitioner p(&net, 4);
  EXPECT_EQ(p.rows(), 1);
  EXPECT_EQ(p.cols(), 4);
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    EXPECT_EQ(p.ShardOfNode(n), static_cast<int>(n));
  }
  // Flat longitude instead: K×1 strips along latitude.
  RoadNetwork::Builder b2;
  b2.AddNode({0.0, 0.5});
  b2.AddNode({0.9, 0.5});
  b2.AddEdgeConstant(0, 1, 1000.0, 60.0);
  RoadNetwork net2 = b2.Build();
  GridRegionPartitioner p2(&net2, 4);
  EXPECT_EQ(p2.rows(), 4);
  EXPECT_EQ(p2.cols(), 1);
  EXPECT_EQ(p2.ShardOfNode(0), 0);
  EXPECT_EQ(p2.ShardOfNode(1), 3);
}

// ---- Event routing ----

class ShardedRoutingTest : public ::testing::Test {
 protected:
  ShardedRoutingTest()
      : network_(BuildQuadNetwork()),
        oracle_(&network_, OracleBackend::kDijkstra),
        partitioner_(&network_, 2) {  // 1×2: lon < 0.45 → 0, else → 1
    config_.accumulation_window = 60.0;
    config_.shards = 2;
  }

  ShardedDispatchEngine MakeEngine() {
    ShardedEngineOptions options;
    options.engine.measure_wall_clock = false;
    return ShardedDispatchEngine(&partitioner_, "test-noop", &oracle_,
                                 config_, PolicyOptions{}, options);
  }

  RoadNetwork network_;
  DistanceOracle oracle_;
  GridRegionPartitioner partitioner_;
  Config config_;
};

TEST_F(ShardedRoutingTest, OrdersRouteToTheirRestaurantShard) {
  ShardedDispatchEngine engine = MakeEngine();
  engine.Handle(OrderPlaced{MakeOrder(0, /*restaurant=*/0, 10.0)});  // west
  engine.Handle(OrderPlaced{MakeOrder(1, /*restaurant=*/1, 11.0)});  // east
  engine.Handle(OrderPlaced{MakeOrder(2, /*restaurant=*/2, 12.0)});  // west
  EXPECT_EQ(engine.shard_of_order(0), 0);
  EXPECT_EQ(engine.shard_of_order(1), 1);
  EXPECT_EQ(engine.shard_of_order(2), 0);
  EXPECT_EQ(engine.shard_of_order(99), -1);
  EXPECT_EQ(engine.shard(0).pending_orders(), 2u);
  EXPECT_EQ(engine.shard(1).pending_orders(), 1u);
  EXPECT_EQ(engine.pending_orders(), 3u);

  // Delivery retires the routing entry (bounded router state).
  engine.Handle(OrderDelivered{1});
  EXPECT_EQ(engine.shard_of_order(1), -1);
}

TEST_F(ShardedRoutingTest, EmptyVehiclesMigrateAndLoadedVehiclesPin) {
  ShardedDispatchEngine engine = MakeEngine();
  engine.Handle(VehicleStateUpdate{MakeSnapshot(7, /*at=*/0), true});
  EXPECT_EQ(engine.shard_of_vehicle(7), 0);
  EXPECT_EQ(engine.shard(0).vehicle_count(), 1u);

  // Crossing the boundary with an in-flight order: pinned to shard 0.
  VehicleSnapshot loaded = MakeSnapshot(7, /*at=*/1);
  loaded.unpicked.push_back(MakeOrder(5, 0, 10.0));
  engine.Handle(VehicleStateUpdate{loaded, true});
  EXPECT_EQ(engine.shard_of_vehicle(7), 0);
  EXPECT_EQ(engine.shard(0).vehicle_count(), 1u);
  EXPECT_EQ(engine.shard(1).vehicle_count(), 0u);

  // The order delivers (the driver notifies before the next update, so the
  // old record is pruned), and the now-empty vehicle migrates — retired
  // from shard 0, freshly announced to shard 1, nothing left behind.
  engine.Handle(OrderDelivered{5, 7});
  engine.Handle(VehicleStateUpdate{MakeSnapshot(7, /*at=*/1), true});
  EXPECT_EQ(engine.shard_of_vehicle(7), 1);
  EXPECT_EQ(engine.shard(0).vehicle_count(), 0u);
  EXPECT_EQ(engine.shard(1).vehicle_count(), 1u);
  EXPECT_EQ(engine.pending_orders(), 0u);

  // Explicit retirement forgets the vehicle entirely.
  engine.Handle(VehicleRetired{7});
  EXPECT_EQ(engine.shard_of_vehicle(7), -1);
  EXPECT_EQ(engine.shard(1).vehicle_count(), 0u);
}

TEST_F(ShardedRoutingTest, BarePingConsultsEngineRecordAndCountsMigrations) {
  ShardedDispatchEngine engine = MakeEngine();
  VehicleSnapshot loaded = MakeSnapshot(7, /*at=*/0);
  loaded.unpicked.push_back(MakeOrder(5, 0, 10.0));
  engine.Handle(VehicleStateUpdate{loaded, true});
  EXPECT_EQ(engine.shard_of_vehicle(7), 0);
  EXPECT_EQ(engine.migrations(), 0u);

  // A bare position ping from across the boundary carries no lists; only
  // the owning engine's record proves the vehicle is loaded. The router
  // must consult that record and pin, keeping the preserved unpicked order
  // in shard 0.
  engine.Handle(VehicleStateUpdate{MakeSnapshot(7, /*at=*/1), true});
  EXPECT_EQ(engine.shard_of_vehicle(7), 0);
  EXPECT_EQ(engine.migrations(), 0u);
  EXPECT_TRUE(engine.shard(0).VehicleHasInFlight(7));
  EXPECT_EQ(engine.shard(1).vehicle_count(), 0u);

  // Delivery empties the record; the next boundary-crossing bare ping
  // migrates (retire from 0, fresh announce on 1) and counts.
  engine.Handle(OrderDelivered{5, 7});
  engine.Handle(VehicleStateUpdate{MakeSnapshot(7, /*at=*/1), true});
  EXPECT_EQ(engine.shard_of_vehicle(7), 1);
  EXPECT_EQ(engine.migrations(), 1u);
  EXPECT_EQ(engine.shard(0).vehicle_count(), 0u);
  EXPECT_EQ(engine.shard(1).vehicle_count(), 1u);
  // The migration retirement must be clean: nothing returned to shard 0's
  // pool (the record was already pruned by OrderDelivered).
  EXPECT_EQ(engine.pending_orders(), 0u);
}

TEST_F(ShardedRoutingTest, RunWindowReportsPerShardAndMergedResults) {
  ShardedDispatchEngine engine = MakeEngine();
  engine.Handle(VehicleStateUpdate{MakeSnapshot(0, 0), true});
  engine.Handle(VehicleStateUpdate{MakeSnapshot(1, 1), true});
  // One order per region, both old enough to be rejected by the ageing
  // rule (the noop policy never assigns).
  engine.Handle(OrderPlaced{MakeOrder(0, 0, 0.0)});
  engine.Handle(OrderPlaced{MakeOrder(1, 1, 0.0)});
  FleetWindowResult fleet = engine.RunWindow(WindowClosed{7200.0});
  ASSERT_EQ(fleet.shards.size(), 2u);
  ASSERT_EQ(fleet.shards[0].rejected.size(), 1u);
  EXPECT_EQ(fleet.shards[0].rejected[0], 0u);
  ASSERT_EQ(fleet.shards[1].rejected.size(), 1u);
  EXPECT_EQ(fleet.shards[1].rejected[0], 1u);
  // Merge concatenates in shard order.
  ASSERT_EQ(fleet.merged.rejected.size(), 2u);
  EXPECT_EQ(fleet.merged.rejected[0], 0u);
  EXPECT_EQ(fleet.merged.rejected[1], 1u);
  EXPECT_EQ(engine.pending_orders(), 0u);
  // Rejection evicts the routing entries too — the router's order table
  // must not outlive the orders it routes.
  EXPECT_EQ(engine.shard_of_order(0), -1);
  EXPECT_EQ(engine.shard_of_order(1), -1);
  EXPECT_EQ(engine.routed_orders(), 0u);
}

// ---- Equivalence and determinism ----

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

// The canonical static-fleet replay (the same helper the bench gates
// drive) over the scenario's event stream.
std::vector<WindowResult> DriveScenario(DispatchCore& core, const Scenario& s,
                                        Seconds delta, Seconds horizon) {
  const Seconds start = 12 * 3600.0;
  return ReplayEventStream(core, MakeBatchReplayEvents(s.fleet, s.orders, start),
                           start, start + horizon, delta);
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

TEST(ShardedEquivalenceTest, K1ReproducesSingleEngineBitForBit) {
  Scenario s = MakeScenario(1357, 6, 60, 1800.0);
  DistanceOracle oracle(&s.network, OracleBackend::kDijkstra);
  GridRegionPartitioner partitioner(&s.network, 1);
  for (const char* name : {"foodmatch", "greedy", "km"}) {
    SCOPED_TRACE(name);
    Config config;
    config.accumulation_window = 120.0;
    std::unique_ptr<AssignmentPolicy> policy =
        PolicyRegistry::Global().Create(name, &oracle, config);
    DispatchEngine single(policy.get(), config,
                          DispatchEngineOptions{.measure_wall_clock = false});
    const std::vector<WindowResult> expected =
        DriveScenario(single, s, 120.0, 1800.0);

    ShardedEngineOptions options;
    options.engine.measure_wall_clock = false;
    ShardedDispatchEngine sharded(&partitioner, name, &oracle, config,
                                  PolicyOptions{}, options);
    const std::vector<WindowResult> merged =
        DriveScenario(sharded, s, 120.0, 1800.0);
    ExpectWindowResultsEqual(expected, merged);
  }
}

TEST(ShardedDeterminismTest, MergedResultsIdenticalAcrossThreadCounts) {
  Scenario s = MakeScenario(2468, 8, 70, 1800.0);
  DistanceOracle oracle(&s.network, OracleBackend::kDijkstra);
  for (int shards : {2, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    GridRegionPartitioner partitioner(&s.network, shards);
    auto run = [&](int threads) {
      Config config;
      config.accumulation_window = 120.0;
      config.threads = threads;
      config.shards = shards;
      ShardedEngineOptions options;
      options.engine.measure_wall_clock = false;
      ShardedDispatchEngine sharded(&partitioner, "foodmatch", &oracle,
                                    config, PolicyOptions{}, options);
      return DriveScenario(sharded, s, 120.0, 1800.0);
    };
    ExpectWindowResultsEqual(run(1), run(4));
  }
}

// The EdgeCache instruments read every shard's cache at snapshot time: the
// resident-state gauges equal the shards' AggregatedStats summed.
TEST(ShardedMetricsTest, EdgeCacheGaugesSumTheShardCaches) {
  Scenario s = MakeScenario(8642, 8, 60, 1800.0);
  DistanceOracle oracle(&s.network, OracleBackend::kDijkstra);
  const int shards = 2;
  GridRegionPartitioner partitioner(&s.network, shards);
  Config config;
  config.accumulation_window = 120.0;
  config.shards = shards;
  obs::MetricsRegistry registry;
  ShardedEngineOptions options;
  options.engine.measure_wall_clock = false;
  options.metrics = &registry;
  ShardedDispatchEngine sharded(&partitioner, "foodmatch", &oracle, config,
                                PolicyOptions{}, options);
  DriveScenario(sharded, s, 120.0, 1800.0);

  EdgeCacheStats want;
  for (int sh = 0; sh < shards; ++sh) {
    const auto* matching =
        dynamic_cast<const MatchingPolicy*>(sharded.shard(sh).policy());
    ASSERT_NE(matching, nullptr);
    const EdgeCacheStats stats = matching->edge_cache()->AggregatedStats();
    want.memo_entries += stats.memo_entries;
    want.footprint_visits += stats.footprint_visits;
  }
  EXPECT_GT(want.memo_entries, 0u);
  EXPECT_GT(want.footprint_visits, 0u);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  const auto gauge = [&](const std::string& name) {
    for (const obs::InstrumentValue& v : snap.instruments) {
      if (v.name == name) {
        EXPECT_EQ(v.kind, obs::InstrumentKind::kGauge) << name;
        return v.gauge;
      }
    }
    ADD_FAILURE() << "missing instrument " << name;
    return -1.0;
  };
  EXPECT_EQ(gauge("graph.edge_cache.memo_entries"),
            static_cast<double>(want.memo_entries));
  EXPECT_EQ(gauge("graph.edge_cache.footprint_visits"),
            static_cast<double>(want.footprint_visits));
}

// With a registry attached the router times its own regions: one
// serving.route_seconds observation per routed event, one shard_window and
// one merge observation per window.
TEST(ShardedMetricsTest, RouterHistogramsCountEventsAndWindows) {
  Scenario s = MakeScenario(9753, 6, 40, 1800.0);
  DistanceOracle oracle(&s.network, OracleBackend::kDijkstra);
  const int shards = 2;
  GridRegionPartitioner partitioner(&s.network, shards);
  Config config;
  config.accumulation_window = 120.0;
  config.shards = shards;
  obs::MetricsRegistry registry;
  ShardedEngineOptions options;
  options.engine.measure_wall_clock = false;
  options.metrics = &registry;
  ShardedDispatchEngine sharded(&partitioner, "foodmatch", &oracle, config,
                                PolicyOptions{}, options);
  const std::vector<WindowResult> windows =
      DriveScenario(sharded, s, 120.0, 1800.0);
  sharded.Handle(VehicleRetired{s.fleet.back().id});
  ASSERT_FALSE(windows.empty());

  const obs::MetricsSnapshot snap = registry.Snapshot();
  const auto count = [&](const std::string& name) -> std::uint64_t {
    const obs::InstrumentValue* v = snap.Find(name);
    if (v == nullptr) {
      ADD_FAILURE() << "missing instrument " << name;
      return 0;
    }
    EXPECT_EQ(v->kind, obs::InstrumentKind::kHistogram) << name;
    return v->histogram.count;
  };
  // Every vehicle announcement, every order, and the retirement.
  EXPECT_EQ(count("serving.route_seconds"),
            s.fleet.size() + s.orders.size() + 1);
  EXPECT_EQ(count("serving.shard_window_seconds"), windows.size());
  EXPECT_EQ(count("serving.merge_seconds"), windows.size());
}

// ---- Rolling horizon: bounded resident state under retirement events ----

TEST(ShardedRollingTest, RetirementEventsKeepResidentStateBounded) {
  Scenario s = MakeScenario(9753, 6, 0, 3600.0);
  DistanceOracle oracle(&s.network, OracleBackend::kDijkstra);
  const int shards = 2;
  GridRegionPartitioner partitioner(&s.network, shards);
  Config config;
  config.accumulation_window = 60.0;
  config.shards = shards;
  ShardedEngineOptions options;
  options.engine.measure_wall_clock = false;
  ShardedDispatchEngine engine(&partitioner, "greedy", &oracle, config,
                               PolicyOptions{}, options);

  std::vector<VehicleSnapshot> fleet;
  for (const Vehicle& v : s.fleet) {
    fleet.push_back(MakeSnapshot(v.id, v.start_node));
    engine.Handle(VehicleStateUpdate{fleet.back(), true});
  }

  Rng rng(42);
  constexpr int kWindows = 150;
  constexpr int kPerWindow = 4;
  OrderId next_id = 0;
  std::uint64_t delivered = 0;
  std::size_t max_resident = 0;
  for (int w = 1; w <= kWindows; ++w) {
    const Seconds now = 12 * 3600.0 + 60.0 * w;
    for (int i = 0; i < kPerWindow; ++i) {
      Order o = MakeOrder(next_id++,
                          static_cast<NodeId>(
                              rng.UniformInt(s.network.num_nodes())),
                          now - 30.0);
      engine.Handle(OrderPlaced{o});
    }
    const WindowResult result = engine.Handle(WindowClosed{now});
    // The toy driver delivers every assignment before the next window and
    // notifies the engine, as a rolling service would.
    for (const AssignmentDecision::Item& item :
         result.decision.assignments) {
      for (const Order& o : item.orders) {
        engine.Handle(OrderDelivered{o.id, item.vehicle});
        ++delivered;
      }
      engine.Handle(VehicleStateUpdate{fleet[item.vehicle], true});
    }
    std::size_t resident = engine.pending_orders() + engine.routed_orders();
    for (int sh = 0; sh < shards; ++sh) {
      resident += engine.shard(sh).ever_assigned_count() +
                  engine.shard(sh).vehicle_count();
    }
    max_resident = std::max(max_resident, resident);
  }

  // Total processed orders grow into the hundreds while resident state
  // (pool + router order table + ever-assigned + vehicle records, summed
  // over shards) stays bounded by the in-flight load: the per-window intake
  // that can pile up for max_unassigned_age windows at worst — counted
  // twice, once in a pool and once in the router table — plus the fleet.
  EXPECT_EQ(next_id, static_cast<OrderId>(kWindows * kPerWindow));
  EXPECT_GT(delivered, 100u);
  const std::size_t bound =
      2 * static_cast<std::size_t>(
              kPerWindow * (config.max_unassigned_age / 60.0 + 2)) +
      s.fleet.size();
  EXPECT_LE(max_resident, bound);
}

}  // namespace
}  // namespace fm
