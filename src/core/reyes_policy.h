// A faithful stand-in for the Reyes et al. [5] meal-delivery matcher, as
// characterized by the paper (§I-A, §V-C):
//   1. distances are haversine (straight-line at an assumed speed), not
//      road-network distances;
//   2. orders may be batched only if they come from the same restaurant;
//   3. assignment is a matching over those batches.
// The simulator still moves vehicles over the real network, so the quality
// gap caused by the unrealistic distance model shows up in the metrics —
// the comparison the paper makes in Fig. 6(b).
#ifndef FOODMATCH_CORE_REYES_POLICY_H_
#define FOODMATCH_CORE_REYES_POLICY_H_

#include <memory>

#include "core/assignment_policy.h"
#include "graph/distance_oracle.h"
#include "model/config.h"

namespace fm {

class ReyesPolicy : public AssignmentPolicy {
 public:
  // `network` must outlive the policy.
  ReyesPolicy(const RoadNetwork* network, const Config& config);

  std::string name() const override { return "Reyes"; }
  bool wants_reshuffle() const override { return false; }

  AssignmentDecision Assign(const std::vector<Order>& unassigned,
                            const std::vector<VehicleSnapshot>& vehicles,
                            Seconds now) override;

 private:
  Config config_;
  // The policy's internal (unrealistic) distance model.
  std::unique_ptr<DistanceOracle> haversine_;
};

}  // namespace fm

#endif  // FOODMATCH_CORE_REYES_POLICY_H_
