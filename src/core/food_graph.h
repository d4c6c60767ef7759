// FOODGRAPH construction (paper §IV-A, §IV-C, §IV-D1).
//
// The FOODGRAPH is the weighted bipartite graph between order batches (U1)
// and vehicles (U2); the edge weight of (π, v) is min(mCost(π, v), Ω), with
// Ω for pairs violating the Def. 4 capacity constraints or the 45-minute
// first-mile bound. Two constructions are provided:
//
//   * BuildFullFoodGraph — computes every batch×vehicle weight (the vanilla
//     Kuhn–Munkres baseline of §V; quadratic cost).
//   * BuildSparsifiedFoodGraph — Algorithm 2: for each vehicle, a best-first
//     search over the road network visits candidate first-pickup nodes in
//     ascending order of the vehicle-sensitive edge weight
//
//       α(v, e, t) = (1−γ)·adist(v, u′, t) + γ·β(e, t)/max β(·, t)   (Eq. 8)
//
//     and only the first k batches discovered get true mCost edges; the
//     rest get Ω. With angular distance disabled the search degenerates to
//     plain Dijkstra order on normalized β, i.e. Lemma 1's top-k guarantee.
//
// Both constructions accept an optional ThreadPool and shard the edge fill
// (full: over batches/rows; sparsified: over vehicles/columns). Each shard
// writes a disjoint slice of the cost matrix and its own counters, which are
// reduced in fixed shard order, so the resulting FoodGraph is bit-identical
// for 1 vs N threads.
//
// With an EdgeCache, BuildFoodGraph maintains the graph incrementally
// across windows: recorded best-first search footprints are replayed instead
// of re-run, and SP legs are served by per-shard duration memos. It produces
// a FoodGraph bit-identical to the from-scratch builders — same weights, same
// mcost_evaluations, same nodes_expanded — for any thread count (enforced by
// tests/food_graph_incremental_test.cc and bench_incremental_graph).
#ifndef FOODMATCH_CORE_FOOD_GRAPH_H_
#define FOODMATCH_CORE_FOOD_GRAPH_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "core/batching.h"
#include "graph/distance_oracle.h"
#include "matching/bipartite.h"
#include "model/config.h"
#include "model/vehicle.h"

namespace fm {

class EdgeCache;  // core/edge_cache.h

struct FoodGraphOptions {
  // Use the best-first sparsified construction (Alg. 2) instead of the full
  // quadratic one.
  bool best_first = true;
  // Mix angular distance into the search weight (Eq. 8). When false the
  // best-first search uses pure normalized travel time (γ = 1 behaviour).
  bool angular = true;
  // Degree bound k for the sparsified construction. <= 0 derives k from
  // Config::k_scale as max(k_min, k_scale · |batches| / |vehicles|)
  // (paper §V-B).
  int fixed_k = 0;
};

struct FoodGraph {
  // cost(i, j): weight of batch i → vehicle j, clamped at Ω.
  CostMatrix cost;
  // Number of true mCost evaluations performed (instrumentation for the
  // scalability experiments; Ω edges are free).
  std::uint64_t mcost_evaluations = 0;
  // Number of road-network nodes expanded by the best-first searches.
  std::uint64_t nodes_expanded = 0;

  FoodGraph(std::size_t batches, std::size_t vehicles, double omega)
      : cost(batches, vehicles, omega) {}
};

/// The Def. 4 feasibility test for assigning `batch` to `vehicle`.
/// Thread-safe (pure). O(|batch|) time.
bool SatisfiesCapacity(const Config& config, const Batch& batch,
                       const VehicleSnapshot& vehicle);

/// \brief Full quadratic construction (§IV-A).
///
/// Complexity: O(|batches| · |vehicles|) mCost evaluations, each an optimal
/// route plan over ≤ MAXO orders. With a pool, rows (batches) are sharded
/// contiguously; output is bit-identical for any thread count.
/// Thread-safety: requires `oracle` to be safe for concurrent Duration()
/// calls (all backends are; warm hub labels first for a lock-free path).
FoodGraph BuildFullFoodGraph(const DistanceOracle& oracle,
                             const Config& config,
                             const std::vector<Batch>& batches,
                             const std::vector<VehicleSnapshot>& vehicles,
                             Seconds now, ThreadPool* pool = nullptr);

/// \brief Algorithm 2: best-first sparsified construction.
///
/// Complexity: O(|vehicles| · (E_k log V_k + k)) where E_k/V_k are the
/// edges/nodes expanded before k batches are discovered (bounded by the
/// first-mile ball), plus O(k) mCost evaluations per vehicle. With a pool,
/// vehicles (columns) are sharded contiguously; each per-vehicle search is
/// independent and writes only its own column, so output is bit-identical
/// for any thread count. `options.best_first` is assumed true by this entry
/// point.
FoodGraph BuildSparsifiedFoodGraph(const DistanceOracle& oracle,
                                   const Config& config,
                                   const FoodGraphOptions& options,
                                   const std::vector<Batch>& batches,
                                   const std::vector<VehicleSnapshot>& vehicles,
                                   Seconds now, ThreadPool* pool = nullptr);

/// \brief Dispatches on options.best_first; with a non-null `cache`, builds
/// incrementally and maintains `cache` across calls.
///
/// The incremental build reconciles the cache against this window's
/// snapshots, then fills the matrix by replaying recorded search footprints
/// (re-running a search whose footprint is stale or too short) and serving SP
/// legs from per-shard duration memos.
///
/// The result is bit-identical to the from-scratch builders (weights,
/// mcost_evaluations, nodes_expanded) for any thread count. Requirements:
/// one cache per (oracle, config, options) policy instance — footprint
/// validity assumes γ, the angular flag and the first-mile bound never
/// change between calls on the same cache.
FoodGraph BuildFoodGraph(const DistanceOracle& oracle, const Config& config,
                         const FoodGraphOptions& options,
                         const std::vector<Batch>& batches,
                         const std::vector<VehicleSnapshot>& vehicles,
                         Seconds now, ThreadPool* pool = nullptr,
                         EdgeCache* cache = nullptr);

}  // namespace fm

#endif  // FOODMATCH_CORE_FOOD_GRAPH_H_
