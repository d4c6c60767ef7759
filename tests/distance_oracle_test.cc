#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "geo/geo.h"
#include "graph/dijkstra.h"
#include "graph/distance_oracle.h"
#include "tests/test_util.h"

namespace fm {
namespace {

TEST(DistanceOracleTest, HubLabelsMatchDijkstraBackend) {
  Rng rng(55);
  RoadNetwork net =
      testing::RandomConnectedNetwork(rng, 50, 150, /*time_varying=*/true);
  DistanceOracle hub(&net, OracleBackend::kHubLabels);
  DistanceOracle dij(&net, OracleBackend::kDijkstra);
  Rng pick(56);
  for (int trial = 0; trial < 100; ++trial) {
    NodeId s = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
    NodeId t = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
    const Seconds time = pick.UniformRange(0.0, kSecondsPerDay);
    EXPECT_NEAR(hub.Duration(s, t, time), dij.Duration(s, t, time), 1e-9);
  }
}

TEST(DistanceOracleTest, SlotSelectionByTimeOfDay) {
  RoadNetwork::Builder builder;
  builder.AddNode({0, 0});
  builder.AddNode({0, 0.01});
  std::array<double, kSlotsPerDay> slots;
  for (int s = 0; s < kSlotsPerDay; ++s) slots[s] = 100.0 + s;
  builder.AddEdge(0, 1, 500, slots);
  builder.AddEdgeConstant(1, 0, 500, 100);
  RoadNetwork net = builder.Build();
  DistanceOracle oracle(&net, OracleBackend::kHubLabels);
  EXPECT_DOUBLE_EQ(oracle.Duration(0, 1, 0.5 * 3600.0), 100.0);
  EXPECT_DOUBLE_EQ(oracle.Duration(0, 1, 13.5 * 3600.0), 113.0);
  EXPECT_DOUBLE_EQ(oracle.Duration(0, 1, 23.5 * 3600.0), 123.0);
}

TEST(DistanceOracleTest, HaversineBackendIgnoresNetworkTopology) {
  // Two nodes connected only through a long detour; haversine sees the
  // straight line.
  RoadNetwork::Builder builder;
  NodeId a = builder.AddNode({0.0, 0.0});
  builder.AddNode({1.0, 1.0});  // detour node far away
  NodeId b = builder.AddNode({0.0, 0.009});  // ~1 km east
  builder.AddEdgeConstant(a, 1, 300000, 10000);
  builder.AddEdgeConstant(1, b, 300000, 10000);
  builder.AddEdgeConstant(b, 1, 300000, 10000);
  builder.AddEdgeConstant(1, a, 300000, 10000);
  RoadNetwork net = builder.Build();

  DistanceOracle hav(&net, OracleBackend::kHaversine, /*speed=*/10.0);
  const Meters straight = Haversine(net.node_position(a), net.node_position(b));
  EXPECT_NEAR(hav.Duration(a, b, 0), straight / 10.0, 1e-9);
  EXPECT_LT(hav.Duration(a, b, 0), 150.0);  // ~100 s, not the 20000 s detour
}

TEST(DistanceOracleTest, ZeroForSameNode) {
  RoadNetwork net = testing::LineNetwork(3);
  for (auto backend : {OracleBackend::kHubLabels, OracleBackend::kDijkstra,
                       OracleBackend::kHaversine}) {
    DistanceOracle oracle(&net, backend);
    EXPECT_DOUBLE_EQ(oracle.Duration(1, 1, 0.0), 0.0);
  }
}

TEST(DistanceOracleTest, QueryCountIncrements) {
  RoadNetwork net = testing::LineNetwork(3);
  DistanceOracle oracle(&net, OracleBackend::kDijkstra);
  EXPECT_EQ(oracle.query_count(), 0u);
  oracle.Duration(0, 2, 0.0);
  oracle.Duration(0, 2, 0.0);  // cached, still counted
  EXPECT_EQ(oracle.query_count(), 2u);
}

TEST(DistanceOracleTest, WarmSlotsPrebuildsLabels) {
  RoadNetwork net = testing::LineNetwork(10);
  DistanceOracle oracle(&net, OracleBackend::kHubLabels);
  oracle.WarmSlots(10, 14);
  // Queries in the warmed range work (behavioural check: exactness).
  EXPECT_DOUBLE_EQ(oracle.Duration(0, 9, 12 * 3600.0), 9 * 60.0);
}

TEST(DistanceOracleTest, IndexSizeSumsTheBuiltSlots) {
  RoadNetwork net = testing::LineNetwork(12);
  DistanceOracle oracle(&net, OracleBackend::kHubLabels);
  EXPECT_EQ(oracle.LabelEntries(), 0u);
  EXPECT_EQ(oracle.IndexBytes(), 0u);
  oracle.WarmSlots(10, 11);
  oracle.Duration(0, 11, 20 * 3600.0);  // builds slot 20 lazily
  std::size_t entries = 0;
  std::size_t bytes = 0;
  for (int slot : {10, 11, 20}) {
    const HubLabels labels = HubLabels::Build(net, slot);
    entries += labels.TotalLabelEntries();
    bytes += labels.MemoryBytes();
  }
  EXPECT_EQ(oracle.LabelEntries(), entries);
  EXPECT_EQ(oracle.IndexBytes(), bytes);
  // No fillers at this size: 10 B per entry plus 2 × 13 offsets per slot.
  EXPECT_EQ(bytes, 10 * entries + 3 * 2 * 13 * sizeof(std::uint32_t));

  DistanceOracle dijkstra(&net, OracleBackend::kDijkstra);
  dijkstra.Duration(0, 11, 10 * 3600.0);
  EXPECT_EQ(dijkstra.LabelEntries(), 0u);
  EXPECT_EQ(dijkstra.IndexBytes(), 0u);
}

// Warming with a pool must be a pure speed change: the per-slot indices are
// deterministic functions of (network, slot), so a concurrently warmed
// oracle serves durations bit-identical to a serially warmed one.
TEST(DistanceOracleTest, ParallelWarmSlotsServesIdenticalDurations) {
  Rng rng(78);
  RoadNetwork net =
      testing::RandomConnectedNetwork(rng, 60, 180, /*time_varying=*/true);
  DistanceOracle serial(&net, OracleBackend::kHubLabels);
  serial.WarmSlots(9, 16);

  for (int threads : {2, 4}) {
    DistanceOracle warmed(&net, OracleBackend::kHubLabels);
    ThreadPool pool(threads);
    warmed.WarmSlots(9, 16, &pool);
    Rng pick(79);
    for (int trial = 0; trial < 200; ++trial) {
      const NodeId u = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
      const NodeId v = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
      const Seconds t = pick.UniformRange(9.0 * 3600.0, 17.0 * 3600.0 - 1.0);
      // Exact equality, not NEAR: the build is deterministic.
      EXPECT_EQ(warmed.Duration(u, v, t), serial.Duration(u, v, t))
          << threads << " threads, pair (" << u << ", " << v << ")";
    }
  }
}

TEST(DistanceOracleTest, WarmSlotsIsIdempotentAndRaceSafeWithQueries) {
  // Warming an already-warm range is a no-op, and warming concurrently with
  // queriers that lazily build the same slots keeps every answer exact: the
  // querier thread below races the pool's warm-up into the same cold slots,
  // exercising the first-publisher-wins re-check under build_mutex_.
  Rng rng(80);
  RoadNetwork net = testing::RandomConnectedNetwork(rng, 40, 120);
  DistanceOracle oracle(&net, OracleBackend::kHubLabels);
  DistanceOracle reference(&net, OracleBackend::kDijkstra);
  // Touch a slot first so WarmSlots meets a mix of warm and cold slots.
  oracle.Duration(0, 1, 12.5 * 3600.0);
  std::thread querier([&] {
    Rng pick(82);
    for (int trial = 0; trial < 30; ++trial) {
      const NodeId u = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
      const NodeId v = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
      const Seconds t =
          pick.UniformRange(10.0 * 3600.0, 16.0 * 3600.0 - 1.0);
      oracle.Duration(u, v, t);  // may lazily build a slot WarmSlots races
    }
  });
  ThreadPool pool(4);
  oracle.WarmSlots(10, 15, &pool);
  querier.join();
  oracle.WarmSlots(10, 15, &pool);  // idempotent
  Rng pick(81);
  for (int trial = 0; trial < 50; ++trial) {
    const NodeId u = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
    const NodeId v = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
    const Seconds t = pick.UniformRange(10.0 * 3600.0, 16.0 * 3600.0 - 1.0);
    EXPECT_NEAR(oracle.Duration(u, v, t), reference.Duration(u, v, t), 1e-9);
  }
}

TEST(DistanceOracleTest, DijkstraCacheIsConsistent) {
  Rng rng(77);
  RoadNetwork net = testing::RandomConnectedNetwork(rng, 30, 90);
  DistanceOracle oracle(&net, OracleBackend::kDijkstra);
  const Seconds first = oracle.Duration(3, 17, 1000.0);
  const Seconds second = oracle.Duration(3, 17, 1000.0);
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_DOUBLE_EQ(first, PointToPointTime(net, 3, 17, 0));
}

// DurationMemo slot retirement. The memo is keyed by HourSlot, so a query
// at hour h + 0.5 lands in slot h.
Seconds AtSlot(int slot) { return (slot + 0.5) * kSecondsPerSlot; }

TEST(DurationMemoTest, AnswersAreTheOraclesBeforeAndAfterRetirement) {
  Rng rng(91);
  RoadNetwork net =
      testing::RandomConnectedNetwork(rng, 40, 120, /*time_varying=*/true);
  DistanceOracle oracle(&net, OracleBackend::kDijkstra);
  DurationMemo memo;
  Rng pick(92);
  std::vector<std::tuple<NodeId, NodeId, Seconds>> queries;
  for (int trial = 0; trial < 200; ++trial) {
    const NodeId u = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
    const NodeId v = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
    const int slot = 8 + static_cast<int>(pick.UniformInt(6));
    queries.emplace_back(u, v, AtSlot(slot));
  }
  const auto check_all = [&] {
    for (const auto& [u, v, t] : queries) {
      // Bitwise: hit or miss, the memo returns the oracle's own answer.
      ASSERT_EQ(memo.Duration(oracle, u, v, t), oracle.Duration(u, v, t));
    }
  };
  check_all();
  memo.RetirePastSlots(12);
  check_all();
  memo.RetirePastSlots(14);
  check_all();
  EXPECT_GT(memo.hits(), 0u);
}

TEST(DurationMemoTest, RetirementDropsPastSlotsAndKeepsTheTrailingOne) {
  RoadNetwork net = testing::LineNetwork(5);
  DistanceOracle oracle(&net, OracleBackend::kHaversine);
  DurationMemo memo;
  for (int slot = 9; slot <= 14; ++slot) {
    memo.Duration(oracle, 0, 4, AtSlot(slot));
  }
  EXPECT_EQ(memo.size(), 6u);
  EXPECT_EQ(memo.misses(), 6u);

  // Clock at 12: slots 9–10 are behind, 11 trails, 12–14 are current/ahead.
  memo.RetirePastSlots(12);
  EXPECT_EQ(memo.size(), 4u);
  for (int slot = 11; slot <= 14; ++slot) {
    memo.Duration(oracle, 0, 4, AtSlot(slot));
  }
  EXPECT_EQ(memo.hits(), 4u);
  memo.Duration(oracle, 0, 4, AtSlot(10));  // retired: asks the oracle again
  EXPECT_EQ(memo.misses(), 7u);

  // Same slot again is a no-op, even for the slot-10 entry just re-added.
  memo.RetirePastSlots(12);
  EXPECT_EQ(memo.size(), 5u);

  // Clock at 13: 10 and 11 are now behind, 12 trails.
  memo.RetirePastSlots(13);
  EXPECT_EQ(memo.size(), 3u);
  const std::uint64_t hits = memo.hits();
  for (int slot = 12; slot <= 14; ++slot) {
    memo.Duration(oracle, 0, 4, AtSlot(slot));
  }
  EXPECT_EQ(memo.hits(), hits + 3);
}

TEST(DurationMemoTest, RetirementWrapsFromSlot23ToSlot0) {
  RoadNetwork net = testing::LineNetwork(5);
  DistanceOracle oracle(&net, OracleBackend::kHaversine);
  DurationMemo memo;
  for (int slot : {21, 22, 23, 0, 1}) {
    memo.Duration(oracle, 1, 3, AtSlot(slot));
  }
  memo.RetirePastSlots(23);  // 21 is behind; 22 trails; 0 and 1 are ahead
  EXPECT_EQ(memo.size(), 4u);
  memo.RetirePastSlots(0);   // 22 is behind now; 23 trails
  EXPECT_EQ(memo.size(), 3u);
  for (int slot : {23, 0, 1}) memo.Duration(oracle, 1, 3, AtSlot(slot));
  EXPECT_EQ(memo.hits(), 3u);
  // Times past midnight wrap into the same slots.
  memo.Duration(oracle, 1, 3, kSecondsPerDay + AtSlot(0));
  EXPECT_EQ(memo.hits(), 4u);
}

TEST(DurationMemoTest, CapClearsTheWholeMemo) {
  RoadNetwork net = testing::LineNetwork(5);
  DistanceOracle oracle(&net, OracleBackend::kHaversine);
  DurationMemo memo(/*cap=*/3);
  memo.Duration(oracle, 0, 1, AtSlot(12));
  memo.Duration(oracle, 0, 2, AtSlot(12));
  memo.Duration(oracle, 0, 3, AtSlot(13));
  EXPECT_EQ(memo.size(), 3u);
  // The fourth entry finds the memo full: it clears, then stores the new one.
  memo.Duration(oracle, 0, 4, AtSlot(14));
  EXPECT_EQ(memo.size(), 1u);
  memo.Duration(oracle, 0, 1, AtSlot(12));
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(memo.misses(), 5u);
  EXPECT_EQ(DurationMemo::kCap, std::size_t{1} << 22);
}

}  // namespace
}  // namespace fm
