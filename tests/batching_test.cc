#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/batching.h"
#include "graph/distance_oracle.h"
#include "obs/trace.h"
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

class BatchingTest : public ::testing::Test {
 protected:
  BatchingTest()
      : net_(testing::LineNetwork(30, 60.0)),
        oracle_(&net_, OracleBackend::kDijkstra) {
    config_.Validate();
  }

  RoadNetwork net_;
  DistanceOracle oracle_;
  Config config_;
};

TEST_F(BatchingTest, SingletonBatchHasZeroCostWhenPrepCovers) {
  // Free-start vehicle materializes at the restaurant → XDT 0.
  Order o = MakeOrder(0, 5, 9, 0.0, 120.0);
  Batch b = MakeSingletonBatch(oracle_, o, 0.0);
  EXPECT_EQ(b.orders.size(), 1u);
  EXPECT_EQ(b.first_pickup, 5u);
  EXPECT_NEAR(b.cost, 0.0, 1e-9);
}

TEST_F(BatchingTest, EmptyInputYieldsNoBatches) {
  BatchingResult r = BatchOrders(oracle_, config_, {}, 0.0);
  EXPECT_TRUE(r.batches.empty());
  EXPECT_EQ(r.merges, 0);
}

TEST_F(BatchingTest, CoLocatedOrdersAreBatched) {
  // Same restaurant, same direction → merging costs nothing and must occur.
  std::vector<Order> orders = {
      MakeOrder(0, 5, 10),
      MakeOrder(1, 5, 12),
  };
  BatchingResult r = BatchOrders(oracle_, config_, orders, 0.0);
  ASSERT_EQ(r.batches.size(), 1u);
  EXPECT_EQ(r.batches[0].orders.size(), 2u);
  EXPECT_EQ(r.merges, 1);
  EXPECT_EQ(r.batches[0].first_pickup, 5u);
}

TEST_F(BatchingTest, FarApartOrdersStaySeparate) {
  // Opposite ends of a long line: batching would cost far more than η.
  std::vector<Order> orders = {
      MakeOrder(0, 0, 2),
      MakeOrder(1, 28, 26),
  };
  BatchingResult r = BatchOrders(oracle_, config_, orders, 0.0);
  EXPECT_EQ(r.batches.size(), 2u);
  EXPECT_EQ(r.merges, 0);
}

TEST_F(BatchingTest, RespectsMaxOrdersPerVehicle) {
  Config config = config_;
  config.max_orders_per_vehicle = 2;
  config.batching_cutoff = 1e9;  // only the capacity can stop merging
  std::vector<Order> orders = {
      MakeOrder(0, 5, 6),
      MakeOrder(1, 5, 6),
      MakeOrder(2, 5, 6),
      MakeOrder(3, 5, 6),
  };
  BatchingResult r = BatchOrders(oracle_, config, orders, 0.0);
  for (const Batch& b : r.batches) {
    EXPECT_LE(b.orders.size(), 2u);
  }
  // 4 identical orders with MAXO=2 must form exactly two pairs.
  EXPECT_EQ(r.batches.size(), 2u);
}

TEST_F(BatchingTest, RespectsMaxItems) {
  Config config = config_;
  config.max_items_per_vehicle = 5;
  std::vector<Order> orders = {
      MakeOrder(0, 5, 6, 0, 0, /*items=*/3),
      MakeOrder(1, 5, 6, 0, 0, /*items=*/3),
  };
  BatchingResult r = BatchOrders(oracle_, config, orders, 0.0);
  EXPECT_EQ(r.batches.size(), 2u);  // 3 + 3 > 5 → cannot merge
}

TEST_F(BatchingTest, EtaZeroDisablesBatchingOfCostlyPairs) {
  Config config = config_;
  config.batching_cutoff = 0.0;
  // Orders whose pairing has strictly positive cost.
  std::vector<Order> orders = {
      MakeOrder(0, 5, 3),
      MakeOrder(1, 7, 9),
  };
  BatchingResult zero = BatchOrders(oracle_, config, orders, 0.0);
  // Zero-cost merges are still allowed (AvgCost stays 0), but this pair
  // costs > 0 and would push AvgCost above 0 — the run may stop before or
  // after one merge depending on the merge's cost; with these orders the
  // merged batch has positive cost, so after merging AvgCost > 0. The
  // stopping rule checks *before* merging, so exactly one merge can happen
  // only if the pre-merge AvgCost (= 0) is ≤ η. Verify the documented
  // behaviour: batches remain within quality: every singleton had cost 0.
  for (const Batch& b : zero.batches) {
    EXPECT_LE(b.orders.size(), 3u);
  }
}

TEST_F(BatchingTest, AvgCostMonotoneUnderMerging) {
  // Theorem 2: AvgCost never decreases across iterations. We verify the
  // endpoint inequality: final AvgCost >= initial AvgCost (0 for free-start
  // singletons on a constant-weight network).
  Rng rng(9);
  std::vector<Order> orders;
  for (int i = 0; i < 12; ++i) {
    orders.push_back(MakeOrder(i, static_cast<NodeId>(rng.UniformInt(30)),
                               static_cast<NodeId>(rng.UniformInt(30))));
  }
  Config config = config_;
  config.batching_cutoff = 300.0;
  BatchingResult r = BatchOrders(oracle_, config, orders, 0.0);
  EXPECT_GE(r.final_avg_cost, -1e-9);
  std::size_t total_orders = 0;
  for (const Batch& b : r.batches) total_orders += b.orders.size();
  EXPECT_EQ(total_orders, orders.size());  // partition property
}

TEST_F(BatchingTest, MergeWeightsAreNonNegativeOnStaticNetwork) {
  // Theorem 2's key lemma: w_ij >= 0. On a constant-weight network (FIFO
  // holds trivially) every pairwise merge weight must be nonnegative:
  // Cost(merged) >= Cost(a) + Cost(b).
  Rng rng(10);
  for (int trial = 0; trial < 30; ++trial) {
    Order a = MakeOrder(0, static_cast<NodeId>(rng.UniformInt(30)),
                        static_cast<NodeId>(rng.UniformInt(30)), 0.0,
                        rng.UniformRange(0, 600));
    Order b = MakeOrder(1, static_cast<NodeId>(rng.UniformInt(30)),
                        static_cast<NodeId>(rng.UniformInt(30)), 0.0,
                        rng.UniformRange(0, 600));
    Batch ba = MakeSingletonBatch(oracle_, a, 0.0);
    Batch bb = MakeSingletonBatch(oracle_, b, 0.0);
    Batch merged = MakeBatchFromOrders(oracle_, {a, b}, 0.0);
    EXPECT_GE(merged.cost - ba.cost - bb.cost, -1e-6)
        << "trial " << trial;
  }
}

TEST_F(BatchingTest, BatchPartitionIsDisjointAndComplete) {
  Rng rng(11);
  std::vector<Order> orders;
  for (int i = 0; i < 20; ++i) {
    orders.push_back(MakeOrder(i, static_cast<NodeId>(rng.UniformInt(30)),
                               static_cast<NodeId>(rng.UniformInt(30))));
  }
  BatchingResult r = BatchOrders(oracle_, config_, orders, 0.0);
  std::vector<bool> seen(orders.size(), false);
  for (const Batch& b : r.batches) {
    EXPECT_LE(static_cast<int>(b.orders.size()), config_.max_orders_per_vehicle);
    EXPECT_LE(b.TotalItemCount(), config_.max_items_per_vehicle);
    for (const Order& o : b.orders) {
      EXPECT_FALSE(seen[o.id]) << "order appears in two batches";
      seen[o.id] = true;
    }
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST_F(BatchingTest, FirstPickupMatchesPlanFront) {
  Rng rng(12);
  std::vector<Order> orders;
  for (int i = 0; i < 10; ++i) {
    orders.push_back(MakeOrder(i, static_cast<NodeId>(rng.UniformInt(30)),
                               static_cast<NodeId>(rng.UniformInt(30))));
  }
  BatchingResult r = BatchOrders(oracle_, config_, orders, 0.0);
  for (const Batch& b : r.batches) {
    ASSERT_FALSE(b.plan.stops.empty());
    EXPECT_EQ(b.plan.stops.front().type, StopType::kPickup);
    EXPECT_EQ(b.plan.stops.front().node, b.first_pickup);
  }
}

// The parallel order-graph build must be a pure speed change: every field
// of the BatchingResult — batch composition, costs, plans, merge count —
// has to be bit-identical to the serial run for any thread count.
TEST_F(BatchingTest, BitIdenticalAcrossThreadCounts) {
  Rng rng(14);
  std::vector<Order> orders;
  for (int i = 0; i < 24; ++i) {
    orders.push_back(MakeOrder(i, static_cast<NodeId>(rng.UniformInt(30)),
                               static_cast<NodeId>(rng.UniformInt(30)), 0.0,
                               rng.UniformRange(0, 300)));
  }
  Config config = config_;
  config.batching_cutoff = 240.0;  // enough headroom to force many merges
  const BatchingResult serial = BatchOrders(oracle_, config, orders, 0.0);
  EXPECT_GT(serial.merges, 0);  // the interesting path must be exercised

  // The parallel runs are traced, so the gate also shows that tracing
  // leaves the result alone.
  obs::Tracer& tracer = obs::Tracer::Global();
  for (int threads : {2, 3, 8}) {
    ThreadPool pool(threads);
    tracer.Enable();
    const BatchingResult parallel =
        BatchOrders(oracle_, config, orders, 0.0, &pool);
    tracer.Disable();

    EXPECT_EQ(parallel.merges, serial.merges) << threads << " threads";
    EXPECT_EQ(parallel.final_avg_cost, serial.final_avg_cost);
    ASSERT_EQ(parallel.batches.size(), serial.batches.size());
    for (std::size_t b = 0; b < serial.batches.size(); ++b) {
      const Batch& s = serial.batches[b];
      const Batch& p = parallel.batches[b];
      EXPECT_EQ(p.cost, s.cost) << "batch " << b;  // exact, not NEAR
      EXPECT_EQ(p.first_pickup, s.first_pickup);
      ASSERT_EQ(p.orders.size(), s.orders.size());
      for (std::size_t o = 0; o < s.orders.size(); ++o) {
        EXPECT_EQ(p.orders[o].id, s.orders[o].id);
      }
      ASSERT_EQ(p.plan.stops.size(), s.plan.stops.size());
      for (std::size_t st = 0; st < s.plan.stops.size(); ++st) {
        EXPECT_EQ(p.plan.stops[st].node, s.plan.stops[st].node);
        EXPECT_EQ(p.plan.stops[st].order, s.plan.stops[st].order);
        EXPECT_EQ(p.plan.stops[st].type, s.plan.stops[st].type);
      }
    }
    // The traced call emitted each sub-phase once, as a "phase" span.
    const std::vector<obs::TraceEvent> events = tracer.SortedEvents();
    EXPECT_EQ(events.size(), 3u);
    for (const char* name : {"batching.singletons", "batching.order_graph",
                             "batching.merge_loop"}) {
      const auto span = std::find_if(
          events.begin(), events.end(),
          [name](const obs::TraceEvent& e) { return e.name == name; });
      ASSERT_NE(span, events.end()) << name;
      EXPECT_STREQ(span->category, "phase");
    }
  }
}

TEST_F(BatchingTest, HigherEtaBatchesMore) {
  Rng rng(13);
  std::vector<Order> orders;
  for (int i = 0; i < 16; ++i) {
    orders.push_back(MakeOrder(i, static_cast<NodeId>(rng.UniformInt(30)),
                               static_cast<NodeId>(rng.UniformInt(30))));
  }
  Config low = config_;
  low.batching_cutoff = 10.0;
  Config high = config_;
  high.batching_cutoff = 600.0;
  const auto r_low = BatchOrders(oracle_, low, orders, 0.0);
  const auto r_high = BatchOrders(oracle_, high, orders, 0.0);
  EXPECT_GE(r_low.batches.size(), r_high.batches.size());
}

}  // namespace
}  // namespace fm
