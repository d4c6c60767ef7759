// Differential window-replay harness for the incremental FOODGRAPH
// maintenance (core/edge_cache.h): randomized multi-window scenarios with
// interleaved order arrivals, vehicle movement, assignments and retirements
// must yield bit-for-bit the same FoodGraph (weights, mcost_evaluations,
// nodes_expanded) and the same engine WindowResults as a from-scratch
// rebuild, at 1 and N threads, for both the sparsified (FoodMatch) and full
// (KM) constructions — plus property tests for the footprint replay,
// retirement and search-restart rules of the EdgeCache itself.
#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/batching.h"
#include "core/dispatch_engine.h"
#include "core/edge_cache.h"
#include "core/food_graph.h"
#include "core/matching_policy.h"
#include "gen/city_gen.h"
#include "graph/distance_oracle.h"
#include "tests/test_util.h"

namespace fm {
namespace {

Order MakeOrder(OrderId id, NodeId r, NodeId c, Seconds placed = 0.0,
                Seconds prep = 0.0, int items = 1) {
  Order o;
  o.id = id;
  o.restaurant = r;
  o.customer = c;
  o.placed_at = placed;
  o.prep_time = prep;
  o.items = items;
  return o;
}

VehicleSnapshot MakeVehicle(VehicleId id, NodeId at, NodeId dest) {
  VehicleSnapshot v;
  v.id = id;
  v.location = at;
  v.next_destination = dest;
  return v;
}

void ExpectGraphsEqual(const FoodGraph& got, const FoodGraph& want,
                       const char* label, int window) {
  EXPECT_EQ(got.mcost_evaluations, want.mcost_evaluations)
      << label << " window=" << window;
  EXPECT_EQ(got.nodes_expanded, want.nodes_expanded)
      << label << " window=" << window;
  ASSERT_EQ(got.cost.rows(), want.cost.rows());
  ASSERT_EQ(got.cost.cols(), want.cost.cols());
  for (std::size_t i = 0; i < want.cost.rows(); ++i) {
    for (std::size_t j = 0; j < want.cost.cols(); ++j) {
      // Bit-identical, not approximately equal.
      ASSERT_EQ(got.cost.at(i, j), want.cost.at(i, j))
          << label << " window=" << window << " cell(" << i << "," << j << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Builder-level differential replay: randomized multi-window scenarios.
// ---------------------------------------------------------------------------

// `city` plus one roadless node on another continent. A vehicle parked there
// is beyond the first-mile radius of every start — the column a geodesic
// prune would skip — so both builds must leave it all Ω on their own.
RoadNetwork WithOffshoreNode(const RoadNetwork& city) {
  RoadNetwork::Builder builder;
  for (std::size_t u = 0; u < city.num_nodes(); ++u) {
    builder.AddNode(city.node_position(static_cast<NodeId>(u)));
  }
  for (std::size_t e = 0; e < city.num_edges(); ++e) {
    const EdgeId edge = static_cast<EdgeId>(e);
    std::array<double, kSlotsPerDay> slots;
    for (int slot = 0; slot < kSlotsPerDay; ++slot) {
      slots[slot] = city.EdgeTime(edge, slot);
    }
    builder.AddEdge(city.edge_tail(edge), city.edge_head(edge),
                    city.edge_length(edge), slots);
  }
  builder.AddNode({40.7, -74.0});
  return builder.Build();
}

// A w×h grid of bidirectional edges: node r·w + c sits at
// (12.9 + 0.004 r, 77.5 + 0.004 c). Every edge takes 60 s unless `rng` is
// given, which draws each edge's constant time from [10, 200]. With `twins`,
// a second grid at the same positions follows (node i + w·h sits at node
// i's exact LatLon), with its own edge times and joined to the first grid
// node by node — so a search reaches half the city through the source's
// twin.
RoadNetwork GridNetwork(int w, int h, Rng* rng, bool twins) {
  RoadNetwork::Builder builder;
  const int n = w * h;
  const int copies = twins ? 2 : 1;
  for (int copy = 0; copy < copies; ++copy) {
    for (int i = 0; i < n; ++i) {
      builder.AddNode({12.9 + 0.004 * (i / w), 77.5 + 0.004 * (i % w)});
    }
  }
  const auto link = [&](int a, int b) {
    const Seconds t = rng != nullptr ? rng->UniformRange(10.0, 200.0) : 60.0;
    builder.AddEdgeConstant(a, b, 400.0, t);
    builder.AddEdgeConstant(b, a, 400.0, t);
  };
  for (int copy = 0; copy < copies; ++copy) {
    for (int i = 0; i < n; ++i) {
      if (i % w + 1 < w) link(copy * n + i, copy * n + i + 1);
      if (i + w < n) link(copy * n + i, copy * n + i + w);
    }
  }
  if (twins) {
    for (int i = 0; i < n; ++i) link(i, i + n);
  }
  return builder.Build();
}

// What a differential scenario varies besides its seed.
struct ScenarioShape {
  std::function<RoadNetwork(Rng&)> city;
  bool best_first = true;
  bool angular = true;
  int fixed_k = 5;
  // When set, every window re-aims random vehicles at their own node or at
  // its twin (another node at the same LatLon), so the angular term's
  // source == dest and source == candidate branches fire.
  std::function<NodeId(NodeId)> twin;
  // Window w closes at first_window + w · window_spacing.
  Seconds first_window = 12 * 3600.0;
  Seconds window_spacing = 180.0;
  Seconds max_first_mile = Config().max_first_mile;
};

ScenarioShape RandomCityShape(bool time_varying, bool best_first) {
  ScenarioShape shape;
  shape.city = [time_varying](Rng& rng) {
    return testing::RandomConnectedNetwork(rng, 60, 140, time_varying);
  };
  shape.best_first = best_first;
  shape.angular = best_first;
  return shape;
}

// Drives `windows` accumulation windows over one persistent fleet: each
// window mutates random vehicles (movement, pickups, deliveries, strips,
// retirement + id reuse), draws a fresh batch set, and builds the FOODGRAPH
// three ways — incremental serial, incremental 4-lane, from-scratch — which
// must agree bitwise. One extra vehicle sits on the offshore node throughout.
void RunDifferentialScenario(std::uint64_t seed, const ScenarioShape& shape) {
  Rng rng(seed);
  const RoadNetwork net = WithOffshoreNode(shape.city(rng));
  const NodeId offshore = static_cast<NodeId>(net.num_nodes() - 1);
  DistanceOracle oracle(&net, OracleBackend::kDijkstra);
  Config config;
  config.threads = 1;
  config.max_first_mile = shape.max_first_mile;
  FoodGraphOptions options;
  options.best_first = shape.best_first;
  options.angular = shape.angular;
  options.fixed_k = shape.fixed_k;

  // Two independent caches so serial and 4-lane incremental paths evolve
  // their own state; determinism requires them to stay identical anyway.
  EdgeCache cache_serial;
  EdgeCache cache_pooled;
  ThreadPool pool(4);

  const auto rand_node = [&] {
    return static_cast<NodeId>(rng.UniformInt(offshore));  // city nodes only
  };

  std::vector<VehicleSnapshot> vehicles;
  for (VehicleId v = 0; v < 9; ++v) {
    vehicles.push_back(MakeVehicle(v, rand_node(), rand_node()));
  }

  OrderId next_order = 1000;
  VehicleId next_vehicle = 100;
  for (int window = 0; window < 7; ++window) {
    const Seconds now = shape.first_window + shape.window_spacing * window;

    // Mutate the fleet.
    for (VehicleSnapshot& v : vehicles) {
      switch (rng.UniformInt(6)) {
        case 0:  // movement commit
          v.location = rand_node();
          v.next_destination = rand_node();
          break;
        case 1:  // assignment
          if (v.TotalAssignedOrders() < config.max_orders_per_vehicle) {
            v.unpicked.push_back(
                MakeOrder(next_order++, rand_node(), rand_node(), now));
          }
          break;
        case 2:  // pickup
          if (!v.unpicked.empty()) {
            v.picked.push_back(v.unpicked.back());
            v.unpicked.pop_back();
          }
          break;
        case 3:  // delivery
          if (!v.picked.empty()) v.picked.pop_back();
          break;
        case 4:  // reshuffle strip
          v.unpicked.clear();
          break;
        default:  // untouched
          break;
      }
    }

    // Occasionally retire a vehicle; a fresh one may reuse the id (the PR-5
    // regression shape: retirement + re-announcement must never serve stale
    // cached state for the reused id).
    if (window == 3 || window == 5) {
      const std::size_t victim = rng.UniformInt(vehicles.size());
      const VehicleId retired_id = vehicles[victim].id;
      cache_serial.OnVehicleRetired(retired_id);
      cache_pooled.OnVehicleRetired(retired_id);
      const VehicleId new_id =
          (window == 3) ? retired_id : next_vehicle++;  // reuse once
      vehicles[victim] = MakeVehicle(new_id, rand_node(), rand_node());
    }

    if (shape.twin) {
      for (VehicleSnapshot& v : vehicles) {
        switch (rng.UniformInt(3)) {
          case 0:  // parked: same node
            v.next_destination = v.location;
            break;
          case 1:  // parked by position only: another node, same LatLon
            v.next_destination = shape.twin(v.location);
            break;
          default:
            break;
        }
      }
    }

    // Fresh batch set: singletons plus an occasional multi-order batch.
    std::vector<Batch> batches;
    const int num_batches = 6 + static_cast<int>(rng.UniformInt(6));
    for (int b = 0; b < num_batches; ++b) {
      if (rng.UniformInt(4) == 0) {
        std::vector<Order> pair_orders = {
            MakeOrder(next_order++, rand_node(), rand_node(), now,
                      rng.UniformRange(0.0, 900.0)),
            MakeOrder(next_order++, rand_node(), rand_node(), now,
                      rng.UniformRange(0.0, 900.0))};
        batches.push_back(MakeBatchFromOrders(oracle, pair_orders, now));
      } else {
        batches.push_back(MakeSingletonBatch(
            oracle,
            MakeOrder(next_order++, rand_node(), rand_node(), now,
                      rng.UniformRange(0.0, 900.0)),
            now));
      }
    }

    std::vector<VehicleSnapshot> fleet = vehicles;
    fleet.push_back(MakeVehicle(99, offshore, offshore));
    const FoodGraph scratch =
        BuildFoodGraph(oracle, config, options, batches, fleet, now);
    const FoodGraph inc_serial = BuildFoodGraph(
        oracle, config, options, batches, fleet, now, nullptr, &cache_serial);
    const FoodGraph inc_pooled = BuildFoodGraph(
        oracle, config, options, batches, fleet, now, &pool, &cache_pooled);
    for (std::size_t i = 0; i < batches.size(); ++i) {
      ASSERT_EQ(scratch.cost.at(i, fleet.size() - 1), config.rejection_penalty)
          << "offshore vehicle got a true edge, window=" << window;
    }
    ExpectGraphsEqual(inc_serial, scratch, "incremental-serial", window);
    ExpectGraphsEqual(inc_pooled, scratch, "incremental-4lane", window);
  }
}

TEST(FoodGraphIncrementalTest, SparsifiedMatchesScratchOnRandomWindows) {
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    for (bool time_varying : {false, true}) {
      RunDifferentialScenario(seed, RandomCityShape(time_varying,
                                                    /*best_first=*/true));
    }
  }
}

// Constant 60 s edges with the angular term off: α is the hop count, so
// every ring around a vehicle is a tie, and with k = 3 the degree cutoff
// lands inside one. Only the (α, node id) order decides which tied batches
// get edges.
TEST(FoodGraphIncrementalTest, SparsifiedMatchesScratchUnderAlphaTies) {
  ScenarioShape shape;
  shape.city = [](Rng&) { return GridNetwork(6, 6, nullptr, false); };
  shape.angular = false;
  shape.fixed_k = 3;
  for (std::uint64_t seed : {31ull, 32ull, 33ull}) {
    RunDifferentialScenario(seed, shape);
  }
}

// Every grid node has a twin at its exact LatLon, and vehicles are parked on
// their own node or its twin: the angular term's zero branches (source ==
// dest, source == candidate by position) fire throughout.
TEST(FoodGraphIncrementalTest, SparsifiedMatchesScratchOnDuplicatePositions) {
  constexpr int kGridNodes = 6 * 6;
  ScenarioShape shape;
  shape.city = [](Rng& rng) { return GridNetwork(6, 6, &rng, true); };
  shape.twin = [](NodeId node) {
    return static_cast<NodeId>(node < kGridNodes ? node + kGridNodes
                                                 : node - kGridNodes);
  };
  for (std::uint64_t seed : {41ull, 42ull, 43ull}) {
    RunDifferentialScenario(seed, shape);
  }
}

// The cutoff inside a tie, by hand: four batches start on the four
// neighbours of the vehicle's node (all at α = 1), listed against node-id
// order, and k = 2. The search settles the two lowest node ids first, so
// exactly their batches get true edges — on every path.
TEST(FoodGraphIncrementalTest, TiedCutoffFavoursLowerNodeIds) {
  const RoadNetwork net = GridNetwork(5, 5, nullptr, false);
  DistanceOracle oracle(&net, OracleBackend::kDijkstra);
  Config config;
  FoodGraphOptions options;
  options.best_first = true;
  options.angular = false;
  options.fixed_k = 2;
  const Seconds now = 12 * 3600.0;
  std::vector<Batch> batches;
  for (NodeId start : {17u, 13u, 11u, 7u}) {  // below, right, left, above 12
    batches.push_back(MakeSingletonBatch(
        oracle, MakeOrder(start, start, 0, now), now));
  }
  const std::vector<VehicleSnapshot> fleet = {MakeVehicle(0, 12, 12)};

  const FoodGraph scratch =
      BuildFoodGraph(oracle, config, options, batches, fleet, now);
  EXPECT_EQ(scratch.nodes_expanded, 3u);  // 12, then 7 and 11
  EXPECT_EQ(scratch.cost.at(0, 0), config.rejection_penalty);
  EXPECT_EQ(scratch.cost.at(1, 0), config.rejection_penalty);
  EXPECT_LT(scratch.cost.at(2, 0), config.rejection_penalty);
  EXPECT_LT(scratch.cost.at(3, 0), config.rejection_penalty);

  EdgeCache cache_serial;
  EdgeCache cache_pooled;
  ThreadPool pool(4);
  ExpectGraphsEqual(BuildFoodGraph(oracle, config, options, batches, fleet,
                                   now, nullptr, &cache_serial),
                    scratch, "tie-serial", 0);
  ExpectGraphsEqual(BuildFoodGraph(oracle, config, options, batches, fleet,
                                   now, &pool, &cache_pooled),
                    scratch, "tie-4lane", 0);
}

// Windows 30 min apart from 22:30 cross the 23:00, midnight and 01:00
// hour-slot boundaries, so each build's PrepareMemos retires memo slots
// (including across the 23 → 0 wrap) while orders placed in earlier slots
// are still on board. Both constructions go through the memos.
TEST(FoodGraphIncrementalTest, MatchesScratchAcrossHourSlotBoundaries) {
  for (bool best_first : {true, false}) {
    ScenarioShape shape = RandomCityShape(/*time_varying=*/true, best_first);
    shape.first_window = 22.5 * 3600.0;
    shape.window_spacing = 1800.0;
    for (std::uint64_t seed : {51ull, 52ull}) {
      RunDifferentialScenario(seed, shape);
    }
  }
}

// A 120 s first-mile bound (a couple of edges) prunes most of every search:
// replayed footprints must still give exactly the scratch build's edges
// without re-testing the bound per visit.
TEST(FoodGraphIncrementalTest, SparsifiedMatchesScratchUnderTightFirstMile) {
  for (std::uint64_t seed : {61ull, 62ull, 63ull}) {
    ScenarioShape shape = RandomCityShape(/*time_varying=*/true,
                                          /*best_first=*/true);
    shape.max_first_mile = 120.0;
    RunDifferentialScenario(seed, shape);
  }
}

TEST(FoodGraphIncrementalTest, FullGraphMatchesScratchOnRandomWindows) {
  for (std::uint64_t seed : {21ull, 22ull}) {
    for (bool time_varying : {false, true}) {
      RunDifferentialScenario(seed, RandomCityShape(time_varying,
                                                    /*best_first=*/false));
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-level differential replay: full windows through DispatchEngine.
// ---------------------------------------------------------------------------

struct Scenario {
  RoadNetwork network;
  std::vector<Vehicle> fleet;
  std::vector<Order> orders;
};

Scenario MakeScenario(std::uint64_t seed, int num_vehicles, int num_orders) {
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
    o.id = static_cast<OrderId>(i);
    o.restaurant = static_cast<NodeId>(rng.UniformInt(s.network.num_nodes()));
    o.customer = static_cast<NodeId>(rng.UniformInt(s.network.num_nodes()));
    o.placed_at = 12 * 3600.0 + rng.UniformRange(0.0, 1800.0);
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

void ExpectWindowResultsEqual(const std::vector<WindowResult>& got,
                              const std::vector<WindowResult>& want,
                              const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t w = 0; w < want.size(); ++w) {
    const WindowResult& a = got[w];
    const WindowResult& b = want[w];
    EXPECT_EQ(a.rejected, b.rejected) << label << " window " << w;
    EXPECT_EQ(a.reshuffled_vehicles, b.reshuffled_vehicles)
        << label << " window " << w;
    EXPECT_EQ(a.decision.cost_evaluations, b.decision.cost_evaluations)
        << label << " window " << w;
    ASSERT_EQ(a.decision.assignments.size(), b.decision.assignments.size())
        << label << " window " << w;
    for (std::size_t i = 0; i < a.decision.assignments.size(); ++i) {
      EXPECT_EQ(a.decision.assignments[i].vehicle,
                b.decision.assignments[i].vehicle);
      ASSERT_EQ(a.decision.assignments[i].orders.size(),
                b.decision.assignments[i].orders.size());
      for (std::size_t j = 0; j < a.decision.assignments[i].orders.size();
           ++j) {
        EXPECT_EQ(a.decision.assignments[i].orders[j],
                  b.decision.assignments[i].orders[j]);
      }
    }
    ASSERT_EQ(a.reinstatements.size(), b.reinstatements.size())
        << label << " window " << w;
    for (std::size_t i = 0; i < a.reinstatements.size(); ++i) {
      EXPECT_EQ(a.reinstatements[i].order, b.reinstatements[i].order);
      EXPECT_EQ(a.reinstatements[i].vehicle, b.reinstatements[i].vehicle);
    }
  }
}

TEST(FoodGraphIncrementalTest, EngineWindowsIdenticalWithIncrementalOnOff) {
  Scenario s = MakeScenario(5151, 6, 48);
  DistanceOracle oracle(&s.network, OracleBackend::kDijkstra);

  const auto run = [&](bool incremental, int threads,
                       const MatchingPolicyOptions& policy_options) {
    Config config;
    config.accumulation_window = 120.0;
    config.threads = threads;
    config.incremental_graph = incremental;
    MatchingPolicy policy(&oracle, config, policy_options);
    DispatchEngine engine(&policy, config,
                          DispatchEngineOptions{.measure_wall_clock = false});
    for (const Vehicle& v : s.fleet) {
      VehicleSnapshot snap;
      snap.id = v.id;
      snap.location = v.start_node;
      snap.next_destination = v.start_node;
      engine.Handle(VehicleStateUpdate{snap, true});
    }
    std::vector<WindowResult> results;
    std::size_t next = 0;
    for (Seconds now = 12 * 3600.0 + 120.0; now <= 12 * 3600.0 + 2400.0;
         now += 120.0) {
      while (next < s.orders.size() && s.orders[next].placed_at <= now) {
        engine.Handle(OrderPlaced{s.orders[next]});
        ++next;
      }
      results.push_back(engine.Handle(WindowClosed{now}));
    }
    return results;
  };

  for (const MatchingPolicyOptions& policy_options :
       {MatchingPolicyOptions::FoodMatch(),
        MatchingPolicyOptions::VanillaKM()}) {
    const std::vector<WindowResult> baseline =
        run(/*incremental=*/false, /*threads=*/1, policy_options);
    ExpectWindowResultsEqual(run(true, 1, policy_options), baseline,
                             "incremental threads=1");
    ExpectWindowResultsEqual(run(true, 4, policy_options), baseline,
                             "incremental threads=4");
    ExpectWindowResultsEqual(run(false, 4, policy_options), baseline,
                             "scratch threads=4");
  }
}

// ---------------------------------------------------------------------------
// EdgeCache property tests: footprint replay, retirement, search restart.
// ---------------------------------------------------------------------------

class EdgeCachePropertyTest : public ::testing::Test {
 protected:
  EdgeCachePropertyTest()
      : net_(testing::LineNetwork(30, 60.0)),
        oracle_(&net_, OracleBackend::kDijkstra) {
    options_.best_first = true;
    options_.angular = false;
    options_.fixed_k = 4;
  }

  std::vector<Batch> SomeBatches(Seconds now) {
    std::vector<Batch> batches;
    for (int i = 0; i < 4; ++i) {
      batches.push_back(MakeSingletonBatch(
          oracle_,
          MakeOrder(static_cast<OrderId>(i), static_cast<NodeId>(4 + 6 * i),
                    static_cast<NodeId>(5 + 6 * i), now),
          now));
    }
    return batches;
  }

  FoodGraph BuildIncremental(EdgeCache& cache,
                             const std::vector<Batch>& batches,
                             const std::vector<VehicleSnapshot>& vehicles,
                             Seconds now) {
    return BuildFoodGraph(oracle_, config_, options_, batches, vehicles, now,
                          nullptr, &cache);
  }

  RoadNetwork net_;
  DistanceOracle oracle_;
  Config config_;
  FoodGraphOptions options_;
};

TEST_F(EdgeCachePropertyTest, UnchangedWindowIsServedEntirelyFromCache) {
  EdgeCache cache;
  const auto batches = SomeBatches(1000.0);
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 0, 0),
                                           MakeVehicle(1, 12, 12)};
  const FoodGraph first = BuildIncremental(cache, batches, vehicles, 1000.0);
  EXPECT_EQ(cache.stats().footprint_rebuilds, 2u);
  EXPECT_EQ(cache.stats().footprint_replays, 0u);

  // Nothing changed: the second build replays every footprint (and every SP
  // leg hits the memo); logical counters still match a scratch build.
  const EdgeCacheStats before = cache.AggregatedStats();
  const FoodGraph second = BuildIncremental(cache, batches, vehicles, 1000.0);
  const EdgeCacheStats after = cache.AggregatedStats();
  EXPECT_EQ(after.footprint_replays, 2u);
  EXPECT_EQ(after.footprint_rebuilds, 2u);  // the first build's
  EXPECT_EQ(after.duration_memo_misses, before.duration_memo_misses);
  EXPECT_GT(after.duration_memo_hits, before.duration_memo_hits);
  // The stats sum the builds' own work counts.
  EXPECT_EQ(after.nodes_expanded,
            first.nodes_expanded + second.nodes_expanded);
  EXPECT_EQ(after.mcost_evaluations,
            first.mcost_evaluations + second.mcost_evaluations);
  const FoodGraph scratch = BuildFoodGraph(oracle_, config_, options_,
                                           batches, vehicles, 1000.0);
  ExpectGraphsEqual(second, scratch, "second-build", 0);
}

TEST_F(EdgeCachePropertyTest, RetirementErasesEntryAndIdReuseIsFresh) {
  EdgeCache cache;
  const auto batches = SomeBatches(1000.0);
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(7, 0, 0)};
  BuildIncremental(cache, batches, vehicles, 1000.0);
  EXPECT_EQ(cache.entry_count(), 1u);

  cache.OnVehicleRetired(7);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.stats().retirements, 1u);

  // A new vehicle reusing id 7 at a different node: its search starts over.
  vehicles[0] = MakeVehicle(7, 12, 12);
  const FoodGraph fresh = BuildIncremental(cache, batches, vehicles, 1000.0);
  EXPECT_EQ(cache.stats().footprint_rebuilds, 2u);
  EXPECT_EQ(cache.stats().footprint_replays, 0u);
  const FoodGraph scratch = BuildFoodGraph(oracle_, config_, options_,
                                           batches, vehicles, 1000.0);
  ExpectGraphsEqual(fresh, scratch, "id-reuse", 0);
}

TEST_F(EdgeCachePropertyTest, ReplayShortfallRestartsTheSearch) {
  EdgeCache cache;
  const auto batches = SomeBatches(1000.0);
  std::vector<VehicleSnapshot> vehicles = {MakeVehicle(0, 0, 0)};
  FoodGraphOptions shallow = options_;
  shallow.fixed_k = 1;
  BuildFoodGraph(oracle_, config_, shallow, batches, vehicles, 1000.0,
                 nullptr, &cache);
  EXPECT_EQ(cache.stats().footprint_rebuilds, 1u);

  // Same vehicle, deeper degree bound: the recorded prefix replays, runs out
  // before degree 4, and the search re-runs from the source (a rebuild) —
  // the result still matches a scratch build at the deeper k.
  FoodGraphOptions deep = options_;
  deep.fixed_k = 4;
  const FoodGraph restarted = BuildFoodGraph(
      oracle_, config_, deep, batches, vehicles, 1000.0, nullptr, &cache);
  EXPECT_EQ(cache.stats().footprint_replays, 1u);
  EXPECT_EQ(cache.stats().footprint_rebuilds, 2u);
  const FoodGraph scratch = BuildFoodGraph(oracle_, config_, deep, batches,
                                           vehicles, 1000.0);
  ExpectGraphsEqual(restarted, scratch, "restart", 0);

  // The extended record now covers degree 4: a third build replays it alone.
  BuildFoodGraph(oracle_, config_, deep, batches, vehicles, 1000.0, nullptr,
                 &cache);
  EXPECT_EQ(cache.stats().footprint_replays, 2u);
  EXPECT_EQ(cache.stats().footprint_rebuilds, 2u);
}

}  // namespace
}  // namespace fm
