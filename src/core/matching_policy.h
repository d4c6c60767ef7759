// Matching-based assignment (paper §IV): minimum-weight perfect matching on
// the FOODGRAPH. With all options enabled this is FOODMATCH; with all
// disabled it is the vanilla Kuhn–Munkres (KM) baseline; intermediate
// settings realize the ablations of Fig. 7(a).
#ifndef FOODMATCH_CORE_MATCHING_POLICY_H_
#define FOODMATCH_CORE_MATCHING_POLICY_H_

#include <memory>
#include <string>

#include "common/thread_pool.h"
#include "core/assignment_policy.h"
#include "core/edge_cache.h"
#include "core/food_graph.h"
#include "graph/distance_oracle.h"
#include "model/config.h"

namespace fm {

struct MatchingPolicyOptions {
  // Batching + Reshuffling (B&R in Fig. 7(a)).
  bool batching = true;
  bool reshuffle = true;
  // Sparsified FOODGRAPH via best-first search (BFS in Fig. 7(a)).
  bool best_first = true;
  // Angular distance in the best-first weight (A in Fig. 7(a)).
  bool angular = true;
  // Degree bound override for the sparsified graph; <= 0 derives k from
  // Config::k_scale.
  int fixed_k = 0;

  // The full FOODMATCH configuration.
  static MatchingPolicyOptions FoodMatch() { return {}; }
  // Vanilla Kuhn–Munkres: full graph, no batching, no reshuffle, no angular.
  static MatchingPolicyOptions VanillaKM() {
    return {.batching = false,
            .reshuffle = false,
            .best_first = false,
            .angular = false,
            .fixed_k = 0};
  }
  // Batching & reshuffling only (B&R).
  static MatchingPolicyOptions BatchingAndReshuffle() {
    return {.batching = true,
            .reshuffle = true,
            .best_first = false,
            .angular = false,
            .fixed_k = 0};
  }
  // B&R + best-first sparsification (B&R+BFS).
  static MatchingPolicyOptions BatchingReshuffleBestFirst() {
    return {.batching = true,
            .reshuffle = true,
            .best_first = true,
            .angular = false,
            .fixed_k = 0};
  }
};

class MatchingPolicy : public AssignmentPolicy {
 public:
  // `oracle` must outlive the policy.
  MatchingPolicy(const DistanceOracle* oracle, const Config& config,
                 const MatchingPolicyOptions& options);

  std::string name() const override;
  bool wants_reshuffle() const override { return options_.reshuffle; }
  ThreadPool* thread_pool() const override { return pool_.get(); }

  AssignmentDecision Assign(const std::vector<Order>& unassigned,
                            const std::vector<VehicleSnapshot>& vehicles,
                            Seconds now) override;

  // Frees the vehicle's incremental FOODGRAPH state; a no-op when
  // Config::incremental_graph is off.
  void OnVehicleRetired(VehicleId vehicle) override {
    if (cache_ != nullptr) cache_->OnVehicleRetired(vehicle);
  }

  const MatchingPolicyOptions& options() const { return options_; }
  // The incremental FOODGRAPH cache; null when Config::incremental_graph is
  // off. Exposed for tests and benchmarks (stats inspection).
  const EdgeCache* edge_cache() const { return cache_.get(); }

 private:
  const DistanceOracle* oracle_;
  Config config_;
  MatchingPolicyOptions options_;
  // Execution lanes for the FOODGRAPH edge fill, sized from config.threads.
  // Null when running serially. Sharding is deterministic (see
  // common/thread_pool.h), so assignments are identical for any lane count.
  std::unique_ptr<ThreadPool> pool_;
  // Cross-window incremental FOODGRAPH state (core/edge_cache.h); null when
  // Config::incremental_graph is off. Never changes results: the incremental
  // build is bit-identical to the from-scratch one.
  std::unique_ptr<EdgeCache> cache_;
};

}  // namespace fm

#endif  // FOODMATCH_CORE_MATCHING_POLICY_H_
