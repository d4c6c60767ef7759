#include "core/reyes_policy.h"

#include <map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/batching.h"
#include "core/food_graph.h"
#include "matching/hungarian.h"

namespace fm {

namespace {

// The constant speed that turns haversine distances into travel times.
constexpr double kAssumedSpeedMps = 7.0;

}  // namespace

ReyesPolicy::ReyesPolicy(const RoadNetwork* network, const Config& config)
    : config_(config),
      haversine_(std::make_unique<DistanceOracle>(
          network, OracleBackend::kHaversine, kAssumedSpeedMps)) {
  config_.Validate();
}

AssignmentDecision ReyesPolicy::Assign(
    const std::vector<Order>& unassigned,
    const std::vector<VehicleSnapshot>& vehicles, Seconds now) {
  AssignmentDecision decision;
  if (unassigned.empty() || vehicles.empty()) return decision;

  // Same-restaurant batching: greedily chunk each restaurant's orders into
  // groups respecting MAXO and MAXI.
  std::map<NodeId, std::vector<Order>> by_restaurant;
  for (const Order& o : unassigned) by_restaurant[o.restaurant].push_back(o);

  std::vector<Batch> batches;
  for (auto& [restaurant, orders] : by_restaurant) {
    std::vector<Order> group;
    int items = 0;
    auto flush = [&]() {
      if (group.empty()) return;
      batches.push_back(
          MakeBatchFromOrders(*haversine_, std::move(group), now));
      group.clear();
      items = 0;
    };
    for (Order& o : orders) {
      const bool over_orders =
          static_cast<int>(group.size()) + 1 > config_.max_orders_per_vehicle;
      const bool over_items = items + o.items > config_.max_items_per_vehicle;
      if (over_orders || over_items) flush();
      items += o.items;
      group.push_back(std::move(o));
    }
    flush();
  }

  // Full bipartite matching under the haversine distance model.
  FoodGraph graph =
      BuildFullFoodGraph(*haversine_, config_, batches, vehicles, now);
  decision.cost_evaluations = graph.mcost_evaluations;
  const Assignment matching = SolveAssignment(graph.cost);

  for (std::size_t i = 0; i < batches.size(); ++i) {
    const std::size_t j = matching.row_to_col[i];
    if (j == Assignment::kUnassigned) continue;
    if (graph.cost.at(i, j) >= config_.rejection_penalty) continue;
    decision.assignments.push_back(
        {std::move(batches[i].orders), vehicles[j].id});
  }
  return decision;
}

}  // namespace fm
