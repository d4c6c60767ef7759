#include "core/batching.h"

#include <algorithm>
#include <queue>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"
#include "routing/route_planner.h"

namespace fm {

Batch MakeBatchFromOrders(const DistanceOracle& oracle,
                          std::vector<Order> orders, Seconds now) {
  PlanRequest request;
  request.start = kInvalidNode;  // free start
  request.start_time = now;
  request.to_pick = std::move(orders);
  PlanResult planned = PlanOptimalRoute(oracle, request);

  Batch batch;
  batch.orders = std::move(request.to_pick);
  if (!planned.feasible) {
    batch.cost = kInfiniteTime;
    // Use the first order's restaurant so the batch still has an anchor.
    batch.first_pickup = batch.orders.front().restaurant;
    return batch;
  }
  batch.plan = std::move(planned.plan);
  batch.cost = planned.cost;
  FM_CHECK(!batch.plan.stops.empty());
  FM_CHECK(batch.plan.stops.front().type == StopType::kPickup);
  batch.first_pickup = batch.plan.stops.front().node;
  return batch;
}

namespace {

// Merged-batch candidate: lazily invalidated heap entry.
struct HeapEdge {
  Seconds weight;
  std::size_t i;
  std::size_t j;
  std::uint32_t stamp_i;
  std::uint32_t stamp_j;

  bool operator>(const HeapEdge& other) const {
    return std::tie(weight, i, j) > std::tie(other.weight, other.i, other.j);
  }
};

}  // namespace

Batch MakeSingletonBatch(const DistanceOracle& oracle, const Order& order,
                         Seconds now) {
  return MakeBatchFromOrders(oracle, {order}, now);
}

BatchingResult BatchOrders(const DistanceOracle& oracle, const Config& config,
                           const std::vector<Order>& orders, Seconds now,
                           ThreadPool* pool) {
  BatchingResult result;
  if (orders.empty()) return result;

  // Π(0): singleton batches (Alg. 1 line 2). Each batch is an independent
  // free-start plan writing slot i only, so the builds shard across lanes.
  std::vector<Batch> nodes(orders.size());
  {
    obs::ScopedSpan span("batching.singletons", "phase");
    ParallelFor(pool, orders.size(), [&](std::size_t i) {
      nodes[i] = MakeSingletonBatch(oracle, orders[i], now);
    });
  }
  std::vector<bool> alive(nodes.size(), true);
  std::vector<std::uint32_t> stamp(nodes.size(), 0);

  const auto mergeable = [&](const Batch& a, const Batch& b) {
    if (a.cost == kInfiniteTime || b.cost == kInfiniteTime) return false;
    const int orders_total =
        static_cast<int>(a.orders.size() + b.orders.size());
    if (orders_total > config.max_orders_per_vehicle) return false;
    return a.TotalItemCount() + b.TotalItemCount() <=
           config.max_items_per_vehicle;
  };

  // Per-edge quality guard: Alg. 1's stopping rule examines the *average*
  // batch cost, which with few (cheap) batches would happily merge one
  // arbitrarily bad pair before the average catches up. We additionally
  // require the merge detour itself to stay within 2η — consistent with the
  // paper's worked example (Fig. 3 merges an edge of weight 2η with η = 2)
  // and documented in DESIGN.md.
  const Seconds max_edge_weight = 2.0 * config.batching_cutoff;

  // Eq. 5 weight; kInfiniteTime when the merged plan is infeasible.
  // Callers must pass (a, b) in canonical (lower index, higher index) order
  // so that recomputation reproduces bit-identical weights.
  const auto edge_weight = [&](const Batch& a, const Batch& b,
                               Batch* merged_out) -> Seconds {
    std::vector<Order> merged = a.orders;
    merged.insert(merged.end(), b.orders.begin(), b.orders.end());
    Batch merged_batch = MakeBatchFromOrders(oracle, std::move(merged), now);
    if (merged_batch.cost == kInfiniteTime) return kInfiniteTime;
    const Seconds w = merged_batch.cost - a.cost - b.cost;
    *merged_out = std::move(merged_batch);
    return w;
  };

  std::priority_queue<HeapEdge, std::vector<HeapEdge>, std::greater<HeapEdge>>
      heap;

  // Evaluates the Eq. 5 weight of every (lo, hi) pair in `pairs` across the
  // pool's lanes — each evaluation plans one merged route into a per-slot
  // scratch Batch and writes only weights[p] — then pushes the surviving
  // edges serially in ascending pair order. The heap's strict total order
  // (weight, i, j) makes its contents independent of insertion order, so the
  // pop sequence is bit-identical to the serial build for any lane count.
  const auto push_edges_parallel =
      [&](const std::vector<std::pair<std::size_t, std::size_t>>& pairs) {
        std::vector<Seconds> weights(pairs.size(), kInfiniteTime);
        ParallelFor(pool, pairs.size(), [&](std::size_t p) {
          Batch scratch;
          weights[p] =
              edge_weight(nodes[pairs[p].first], nodes[pairs[p].second],
                          &scratch);
        });
        for (std::size_t p = 0; p < pairs.size(); ++p) {
          if (weights[p] == kInfiniteTime || weights[p] > max_edge_weight) {
            continue;
          }
          const auto [i, j] = pairs[p];
          heap.push({weights[p], i, j, stamp[i], stamp[j]});
        }
      };

  // W(0): all pairwise edges (Alg. 1 line 3). The cheap mergeable() screen
  // runs serially; the route plans behind the surviving pairs dominate and
  // are sharded.
  {
    obs::ScopedSpan span("batching.order_graph", "phase");
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (std::size_t j = i + 1; j < nodes.size(); ++j) {
        if (mergeable(nodes[i], nodes[j])) pairs.emplace_back(i, j);
      }
    }
    push_edges_parallel(pairs);
  }

  const auto avg_cost = [&]() -> Seconds {
    Seconds total = 0.0;
    std::size_t finite = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (alive[i] && nodes[i].cost != kInfiniteTime) {
        total += nodes[i].cost;
        ++finite;
      }
    }
    return finite == 0 ? 0.0 : total / static_cast<Seconds>(finite);
  };

  // Iterative clustering (Alg. 1 lines 5–16). The loop's control flow (heap
  // pops, stamps, the stopping rule) is inherently serial; only the
  // reconnection weights inside each iteration fan out.
  {
    obs::ScopedSpan span("batching.merge_loop", "phase");
    while (!heap.empty()) {
      // Stopping criterion (line 6): AvgCost (Eq. 6) above the cutoff η.
      if (avg_cost() > config.batching_cutoff) break;

      HeapEdge top = heap.top();
      heap.pop();
      const std::size_t i = top.i;
      const std::size_t j = top.j;
      if (!alive[i] || !alive[j]) continue;
      if (stamp[i] != top.stamp_i || stamp[j] != top.stamp_j) continue;

      // Merge π_i and π_j into a new node (lines 9–12).
      Batch merged;
      const Seconds w = edge_weight(nodes[i], nodes[j], &merged);
      if (w == kInfiniteTime) continue;
      FM_CHECK_EQ(top.weight, w);  // deterministic recomputation

      alive[i] = false;
      alive[j] = false;
      nodes.push_back(std::move(merged));
      alive.push_back(true);
      stamp.push_back(0);
      const std::size_t m = nodes.size() - 1;
      ++result.merges;

      // Connect the merged node to the remaining clusters (line 13). The new
      // node m has the highest index, so the canonical order is (t, m).
      std::vector<std::pair<std::size_t, std::size_t>> pairs;
      for (std::size_t t = 0; t < m; ++t) {
        if (alive[t] && mergeable(nodes[t], nodes[m])) pairs.emplace_back(t, m);
      }
      push_edges_parallel(pairs);
    }
  }

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (alive[i]) result.batches.push_back(std::move(nodes[i]));
  }
  result.final_avg_cost = 0.0;
  {
    Seconds total = 0.0;
    std::size_t finite = 0;
    for (const Batch& b : result.batches) {
      if (b.cost != kInfiniteTime) {
        total += b.cost;
        ++finite;
      }
    }
    if (finite > 0) result.final_avg_cost = total / static_cast<Seconds>(finite);
  }
  return result;
}

}  // namespace fm
