// The policy interface every assignment strategy implements.
//
// At the end of each accumulation window the simulator hands the policy the
// unassigned order pool O(ℓ) and snapshots of the active vehicles V(ℓ); the
// policy returns which (batches of) orders to hand to which vehicles.
#ifndef FOODMATCH_CORE_ASSIGNMENT_POLICY_H_
#define FOODMATCH_CORE_ASSIGNMENT_POLICY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/types.h"
#include "model/order.h"
#include "model/vehicle.h"

namespace fm {

struct AssignmentDecision {
  struct Item {
    std::vector<Order> orders;  // a batch (possibly a single order)
    VehicleId vehicle = kInvalidVehicle;
  };
  std::vector<Item> assignments;

  // Instrumentation: marginal-cost (route-plan) evaluations performed.
  std::uint64_t cost_evaluations = 0;

  // Per-phase wall-clock seconds of this decision (batching / FOODGRAPH
  // construction / Kuhn–Munkres; the batching sub-phases are trace spans,
  // core/batching.h). Zero for policies that don't instrument phases.
  // Wall-clock only — never feeds back into simulated time, so simulation
  // results stay deterministic.
  double batching_seconds = 0.0;
  double graph_seconds = 0.0;
  double matching_seconds = 0.0;
};

class AssignmentPolicy {
 public:
  virtual ~AssignmentPolicy() = default;

  virtual std::string name() const = 0;

  // Whether the simulator should strip not-yet-picked-up orders from
  // vehicles and return them to the pool before calling Assign (the
  // reshuffling of §IV-D2).
  virtual bool wants_reshuffle() const = 0;

  // Computes assignments for the current window. `now` is the window-end
  // decision time. Orders not covered by the returned assignments remain
  // unassigned and reappear in the next window's pool (or are rejected once
  // they exceed the 30-minute limit).
  virtual AssignmentDecision Assign(
      const std::vector<Order>& unassigned,
      const std::vector<VehicleSnapshot>& vehicles, Seconds now) = 0;

  // The policy's thread pool, if it owns one, so the simulator can reuse it
  // for the plan-rebuild phase instead of spawning a second set of workers
  // (the two phases never overlap: Assign returns before rebuilds start).
  virtual ThreadPool* thread_pool() const { return nullptr; }

  // Retirement notification, fired by the DispatchEngine when a vehicle
  // leaves the fleet. Policies that cache per-vehicle state
  // (core/edge_cache.h) free it here; the default is a no-op.
  virtual void OnVehicleRetired(VehicleId /*vehicle*/) {}
};

}  // namespace fm

#endif  // FOODMATCH_CORE_ASSIGNMENT_POLICY_H_
