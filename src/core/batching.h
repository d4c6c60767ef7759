// Order batching by iterative clustering on the order graph
// (paper §IV-B, Algorithm 1).
//
// Each node of the order graph is a batch π (a set of orders) carrying the
// cost Cost(v_π, π) of serving it with a dedicated simulated vehicle that
// starts at the first node of the batch's optimal route plan. Two batches
// are mergeable when the union respects MAXO/MAXI; the edge weight
//
//   w_ij = Cost(v_ij, π_i ∪ π_j) − Cost(v_i, π_i) − Cost(v_j, π_j)   (Eq. 5)
//
// measures the detour created by batching them. The clustering repeatedly
// merges the minimum-weight edge until the average batch cost exceeds the
// quality cutoff η (Eq. 6) or no mergeable pair remains. Theorem 2
// (w_ij ≥ 0 ⇒ AvgCost monotone) guarantees termination.
#ifndef FOODMATCH_CORE_BATCHING_H_
#define FOODMATCH_CORE_BATCHING_H_

#include <vector>

#include "common/thread_pool.h"
#include "common/types.h"
#include "graph/distance_oracle.h"
#include "model/config.h"
#include "model/order.h"
#include "routing/route_plan.h"

namespace fm {

struct Batch {
  // g_i: the orders in this batch.
  std::vector<Order> orders;
  // σ_i: quickest free-start route plan for the batch.
  RoutePlan plan;
  // Cost(v_i, π_i) with the simulated vehicle of §IV-B1.
  Seconds cost = 0.0;
  // π[1]^r: the restaurant node picked up first in σ_i — the node a vehicle
  // must reach first to serve this batch.
  NodeId first_pickup = kInvalidNode;

  int TotalItemCount() const { return TotalItems(orders); }
};

struct BatchingResult {
  std::vector<Batch> batches;
  // Number of merge iterations performed (r in Alg. 1).
  int merges = 0;
  // AvgCost (Eq. 6) of the final order graph.
  Seconds final_avg_cost = 0.0;
};

// Builds a batch from an arbitrary order set via the free-start optimal
// plan (the simulated vehicle of §IV-B1 materializes at the plan's first
// pickup). cost is kInfiniteTime when no feasible plan exists.
Batch MakeBatchFromOrders(const DistanceOracle& oracle,
                          std::vector<Order> orders, Seconds now);

// Builds a singleton batch for one order (free-start optimal plan).
Batch MakeSingletonBatch(const DistanceOracle& oracle, const Order& order,
                         Seconds now);

/// \brief Algorithm 1: iterative min-edge clustering on the order graph.
///
/// `now` is the decision time (end of the accumulation window). Orders whose
/// restaurant cannot reach their customer are returned as singleton batches
/// with infinite cost (the matching layer rejects them).
///
/// Parallelism: every Eq. 5 edge weight is an independent free-start route
/// plan, so the three bulk evaluations — singleton batch construction, the
/// initial pairwise order-graph build W(0), and the merged-node reconnection
/// weights after each merge — are sharded across `pool` lanes. Each
/// evaluation writes only its own pre-sized slot (per-shard scratch
/// RoutePlans, no shared mutable state beyond the thread-safe oracle), and
/// the surviving edges are pushed into the heap serially in ascending pair
/// order afterwards, so the heap's pop sequence — and therefore the merge
/// sequence and the returned BatchingResult — is bit-identical for any
/// thread count (see common/thread_pool.h). The merge loop itself (heap pops,
/// stamp bookkeeping, the stopping rule) is inherently serial and stays on
/// the calling thread.
///
/// Thread safety: BatchOrders is a blocking call; `pool` must not be running
/// another job. While obs::Tracer is enabled, the call emits three "phase"
/// spans from the calling thread: "batching.singletons",
/// "batching.order_graph" (initial W(0) fill) and "batching.merge_loop"
/// (serial clustering incl. parallel reconnection weights).
///
/// Complexity: O(n²) edge-weight evaluations up front and O(n) per merge,
/// each evaluation an optimal free-start plan (exhaustive within MAXO);
/// heap operations add O(E log E). Wall-clock for the evaluation phases
/// scales ~1/lanes; the merge loop's bookkeeping does not.
BatchingResult BatchOrders(const DistanceOracle& oracle, const Config& config,
                           const std::vector<Order>& orders, Seconds now,
                           ThreadPool* pool = nullptr);

}  // namespace fm

#endif  // FOODMATCH_CORE_BATCHING_H_
