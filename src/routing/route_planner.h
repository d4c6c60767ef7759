// Quickest route plan computation (paper Def. 3 / §II).
//
// Given a vehicle position, a departure time, orders already on board
// (drop-off only) and orders still to pick up (pick-up before drop-off), the
// planner enumerates every valid stop sequence — feasible because
// MAXO ≤ 3 bounds plans at 2·MAXO = 6 stops, exactly the argument the paper
// makes — and returns the one minimizing Cost(v, O) = Σ XDT (Eq. 4).
//
// Timeline semantics: each leg takes SP(from, to, departure time); arriving
// at a restaurant before the food is ready makes the driver wait (this
// waiting is the WT metric of §V-B); drop-offs are instantaneous.
#ifndef FOODMATCH_ROUTING_ROUTE_PLANNER_H_
#define FOODMATCH_ROUTING_ROUTE_PLANNER_H_

#include <vector>

#include "common/types.h"
#include "graph/distance_oracle.h"
#include "model/order.h"
#include "model/vehicle.h"
#include "routing/route_plan.h"

namespace fm {

struct PlanRequest {
  // Vehicle location at start_time. May be kInvalidNode for a *free-start*
  // plan (used by the batching edge weights of Eq. 5, where the simulated
  // vehicle materializes at the first pick-up of the optimal plan); a
  // free-start request must have empty `onboard`.
  NodeId start = kInvalidNode;
  Seconds start_time = 0.0;
  // Orders on board: only their drop-off stops remain.
  std::vector<Order> onboard;
  // Orders not yet picked up: pick-up stop precedes drop-off stop.
  std::vector<Order> to_pick;
};

struct PlanResult {
  // False when some required stop is unreachable (cost is infinite).
  bool feasible = false;
  RoutePlan plan;
  // Cost(v, O): Σ XDT over all orders in the request (Eq. 4).
  Seconds cost = kInfiniteTime;
  // Wall-clock time at which the last stop completes.
  Seconds completion_time = 0.0;
  // Total driver idle time spent waiting for food preparation.
  Seconds wait_time = 0.0;
  // Wall-clock arrival time at each stop (before any prep wait).
  std::vector<Seconds> arrival_times;
  // Wall-clock departure time from each stop (after any prep wait).
  std::vector<Seconds> departure_times;
};

// Walks `plan` under the request's timeline and returns its evaluation.
// The plan must be valid for the request (IsValidPlan). A non-null `memo`
// caches leg SP queries — results are bit-identical with or without one
// (see DurationMemo).
PlanResult EvaluatePlan(const DistanceOracle& oracle, const PlanRequest& request,
                        const RoutePlan& plan, DurationMemo* memo = nullptr);

// Returns the quickest route plan (minimum Σ XDT) over all valid stop
// sequences. DFS enumeration; practical for onboard+to_pick ≤ 4 orders.
PlanResult PlanOptimalRoute(const DistanceOracle& oracle,
                            const PlanRequest& request,
                            DurationMemo* memo = nullptr);

// Reference implementation that enumerates sequences without any pruning.
// Used as a property-test oracle for PlanOptimalRoute.
PlanResult PlanOptimalRouteBruteForce(const DistanceOracle& oracle,
                                      const PlanRequest& request);

// mCost(π, v) (Def. 9 / Eq. 7): increase of Cost(v, ·) when the batch
// `extra` is added to vehicle `v` at time `now`. Returns kInfiniteTime if
// the combined plan is infeasible.
Seconds MarginalCost(const DistanceOracle& oracle, const VehicleSnapshot& v,
                     Seconds now, const std::vector<Order>& extra);

// Cost(v, current orders) — the "before" term of Eq. 7 on its own.
// kInfiniteTime when the vehicle's current plan is infeasible. Exposed so a
// builder evaluating many batches against one vehicle computes it once per
// vehicle per window instead of once per pair (the value is a deterministic
// function of (v, now), so hoisting it is bit-transparent).
Seconds BaseRouteCost(const DistanceOracle& oracle, const VehicleSnapshot& v,
                      Seconds now, DurationMemo* memo = nullptr);

// MarginalCost with a precomputed base cost (from BaseRouteCost). Passing
// base_cost == kInfiniteTime short-circuits to kInfiniteTime exactly like
// an infeasible before-plan.
Seconds MarginalCostWithBase(const DistanceOracle& oracle,
                             const VehicleSnapshot& v, Seconds now,
                             const std::vector<Order>& extra, Seconds base_cost,
                             DurationMemo* memo = nullptr);

}  // namespace fm

#endif  // FOODMATCH_ROUTING_ROUTE_PLANNER_H_
