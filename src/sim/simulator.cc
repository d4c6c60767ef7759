#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "graph/dijkstra.h"
#include "routing/costs.h"
#include "routing/route_planner.h"

namespace fm {
namespace {

// Cheapest edge u → v at `slot`; the synthetic networks have no parallel
// edges, but this stays correct if they ever do.
EdgeId FindEdge(const RoadNetwork& net, NodeId u, NodeId v, int slot) {
  EdgeId best = kInvalidEdge;
  Seconds best_time = kInfiniteTime;
  for (EdgeId e : net.OutEdges(u)) {
    if (net.edge_head(e) == v && net.EdgeTime(e, slot) < best_time) {
      best_time = net.EdgeTime(e, slot);
      best = e;
    }
  }
  FM_CHECK_NE(best, kInvalidEdge);
  return best;
}

}  // namespace

NodeId Simulator::VehicleState::NextDestination() const {
  for (std::size_t i = itin_pos; i < itinerary.size(); ++i) {
    if (itinerary[i].node != node) return itinerary[i].node;
  }
  return node;
}

Simulator::Simulator(SimulationInput input, AssignmentPolicy* policy)
    : input_(std::move(input)),
      owned_engine_(std::make_unique<DispatchEngine>(
          policy, input_.config,
          DispatchEngineOptions{.measure_wall_clock =
                                    input_.measure_wall_clock})),
      core_(owned_engine_.get()) {
  Init();
}

Simulator::Simulator(SimulationInput input, DispatchCore* core)
    : input_(std::move(input)), core_(core) {
  FM_CHECK(core_ != nullptr);
  Init();
}

void Simulator::Init() {
  FM_CHECK(input_.network != nullptr);
  FM_CHECK(input_.oracle != nullptr);
  FM_CHECK_LT(input_.start_time, input_.end_time);
  FM_CHECK(std::is_sorted(
      input_.orders.begin(), input_.orders.end(),
      [](const Order& a, const Order& b) { return a.placed_at < b.placed_at; }));

  vehicles_.reserve(input_.fleet.size());
  for (const Vehicle& spec : input_.fleet) {
    VehicleState state;
    state.spec = spec;
    state.node = spec.start_node;
    state.node_time = input_.start_time;
    vehicle_index_[spec.id] = vehicles_.size();
    vehicles_.push_back(std::move(state));
  }

  outcomes_.resize(input_.orders.size());
  for (std::size_t i = 0; i < input_.orders.size(); ++i) {
    FM_CHECK_LT(input_.orders[i].id, input_.orders.size());
    outcomes_[input_.orders[i].id].id = input_.orders[i].id;
  }
}

void Simulator::RecordDelivery(VehicleState& v, const Order& order,
                               Seconds at) {
  OrderOutcome& outcome = outcomes_[order.id];
  outcome.state = OrderOutcome::State::kDelivered;
  outcome.vehicle = v.spec.id;
  outcome.delivered_at = at;
  outcome.xdt = ExtraDeliveryTime(*input_.oracle, order, at);

  ++metrics_.orders_delivered;
  metrics_.total_xdt_seconds += outcome.xdt;
  metrics_.total_delivery_seconds += at - order.placed_at;
  SlotMetrics& slot = metrics_.per_slot[HourSlot(order.placed_at)];
  ++slot.orders_delivered;
  slot.xdt_seconds += outcome.xdt;

  // Retire the order from the dispatch core so its ever-assigned set (and,
  // under sharding, the router's order table) tracks only in-flight orders.
  // A delivered order can never re-enter the pool, so this cannot change
  // any later decision — replays stay bit-identical to the pre-retirement
  // path (asserted by the engine-equivalence golden fingerprints).
  core_->Handle(OrderDelivered{order.id, v.spec.id});
}

void Simulator::ProcessStep(VehicleState& v, const ItinStep& step) {
  const RoadNetwork& net = *input_.network;
  if (step.edge != kInvalidEdge) {
    const Meters len = net.edge_length(step.edge);
    const int bucket = std::min(v.load, Metrics::kMaxLoadBucket);
    metrics_.distance_by_load_m[bucket] += len;
    SlotMetrics& slot = metrics_.per_slot[HourSlot(step.time)];
    slot.distance_m += len;
    slot.load_distance_m += static_cast<double>(v.load) * len;
  } else if (step.stop_index >= 0) {
    FM_CHECK_LT(static_cast<std::size_t>(step.stop_index), v.plan.stops.size());
    const Stop& stop = v.plan.stops[step.stop_index];
    if (stop.type == StopType::kPickup) {
      auto it = std::find_if(v.unpicked.begin(), v.unpicked.end(),
                             [&](const Order& o) { return o.id == stop.order; });
      FM_CHECK_MSG(it != v.unpicked.end(), "pickup for unknown order");
      // Driver idle time between arrival (current node_time) and departure.
      const Seconds wait = step.time - v.node_time;
      FM_CHECK_GE(wait, -1e-6);
      if (wait > 0) {
        metrics_.total_wait_seconds += wait;
        metrics_.per_slot[HourSlot(step.time)].wait_seconds += wait;
      }
      v.picked.push_back(*it);
      v.unpicked.erase(it);
      ++v.load;
    } else {
      auto it = std::find_if(v.picked.begin(), v.picked.end(),
                             [&](const Order& o) { return o.id == stop.order; });
      FM_CHECK_MSG(it != v.picked.end(), "dropoff for order not on board");
      RecordDelivery(v, *it, step.time);
      v.picked.erase(it);
      --v.load;
    }
  }
  v.node = step.node;
  v.node_time = step.time;
}

void Simulator::AdvanceVehicle(VehicleState& v, Seconds until) {
  while (v.itin_pos < v.itinerary.size() &&
         v.itinerary[v.itin_pos].time <= until) {
    ProcessStep(v, v.itinerary[v.itin_pos]);
    ++v.itin_pos;
  }
}

std::pair<NodeId, Seconds> Simulator::ReplanAnchor(VehicleState& v,
                                                   Seconds now) {
  if (v.itin_pos >= v.itinerary.size()) {
    return {v.node, std::max(now, v.node_time)};
  }
  const ItinStep& next = v.itinerary[v.itin_pos];
  if (next.edge != kInvalidEdge) {
    // Mid-edge: the vehicle commits to finishing this road segment.
    ProcessStep(v, next);
    ++v.itin_pos;
    return {v.node, v.node_time};
  }
  // Waiting at a stop (e.g. for food preparation): replan from here, now.
  return {v.node, std::max(now, v.node_time)};
}

void Simulator::RebuildPlan(VehicleState& v, NodeId anchor, Seconds depart) {
  PlanRequest request;
  request.start = anchor;
  request.start_time = depart;
  request.onboard = v.picked;
  request.to_pick = v.unpicked;
  PlanResult planned = PlanOptimalRoute(*input_.oracle, request);
  FM_CHECK_MSG(planned.feasible,
               "vehicle cannot serve its assigned orders (disconnected graph?)");
  v.plan = std::move(planned.plan);
  BuildItinerary(v, anchor, depart);
  v.dirty = false;
}

void Simulator::BuildItinerary(VehicleState& v, NodeId anchor, Seconds depart) {
  const RoadNetwork& net = *input_.network;
  v.itinerary.clear();
  v.itin_pos = 0;
  v.node = anchor;
  v.node_time = depart;

  NodeId cur = anchor;
  Seconds t = depart;
  for (std::size_t i = 0; i < v.plan.stops.size(); ++i) {
    const Stop& stop = v.plan.stops[i];
    if (stop.node != cur) {
      const std::vector<NodeId> path =
          ShortestPathNodes(net, cur, stop.node, HourSlot(t));
      FM_CHECK_MSG(!path.empty(), "route leg is unreachable");
      for (std::size_t p = 0; p + 1 < path.size(); ++p) {
        const EdgeId e = FindEdge(net, path[p], path[p + 1], HourSlot(t));
        t += net.EdgeTime(e, HourSlot(t));
        v.itinerary.push_back({t, path[p + 1], e, -1});
      }
      cur = stop.node;
    }
    if (stop.type == StopType::kPickup) {
      // Departure from the restaurant waits for food readiness.
      const Order* order = nullptr;
      for (const Order& o : v.unpicked) {
        if (o.id == stop.order) order = &o;
      }
      FM_CHECK_MSG(order != nullptr, "plan references unassigned order");
      t = std::max(t, order->ready_at());
    }
    v.itinerary.push_back({t, cur, kInvalidEdge, static_cast<int>(i)});
  }
}

void Simulator::ApplyWindowResult(const WindowResult& result) {
  // Rejections: the engine dropped these from the pool; score the outcome.
  for (OrderId id : result.rejected) {
    outcomes_[id].state = OrderOutcome::State::kRejected;
    ++metrics_.orders_rejected;
  }

  // Reshuffle strips: the engine moved these vehicles' unpicked orders back
  // into its pool; drop our copies and force a replan.
  for (VehicleId vid : result.reshuffled_vehicles) {
    auto it = vehicle_index_.find(vid);
    FM_CHECK_MSG(it != vehicle_index_.end(), "reshuffle of unknown vehicle");
    VehicleState& v = vehicles_[it->second];
    v.unpicked.clear();
    v.dirty = true;
  }

  // Assignments.
  for (const AssignmentDecision::Item& item : result.decision.assignments) {
    auto vit = vehicle_index_.find(item.vehicle);
    FM_CHECK_MSG(vit != vehicle_index_.end(), "assignment to unknown vehicle");
    VehicleState& v = vehicles_[vit->second];
    for (const Order& order : item.orders) {
      v.unpicked.push_back(order);
      ++outcomes_[order.id].times_assigned;
    }
    FM_CHECK_LE(static_cast<int>(v.picked.size() + v.unpicked.size()),
                input_.config.max_orders_per_vehicle);
    FM_CHECK_LE(TotalItems(v.picked) + TotalItems(v.unpicked),
                input_.config.max_items_per_vehicle);
    v.dirty = true;
  }

  // Reinstatements of stripped-but-unmatched orders (no times_assigned
  // increment: the incumbent already counted when the order was first
  // assigned).
  for (const WindowResult::Reinstatement& r : result.reinstatements) {
    auto it = vehicle_index_.find(r.vehicle);
    FM_CHECK_MSG(it != vehicle_index_.end(), "reinstatement to unknown vehicle");
    VehicleState& v = vehicles_[it->second];
    v.unpicked.push_back(r.order);
    v.dirty = true;
  }
}

SimulationResult Simulator::Run() {
  const Seconds delta = input_.config.accumulation_window;
  const Seconds hard_end = input_.end_time + input_.drain_time;
  std::size_t next_order = 0;

  metrics_.orders_total = input_.orders.size();

  Seconds now = input_.start_time;
  while (now < hard_end) {
    now = std::min(now + delta, hard_end);

    // 1. Advance the world to the window boundary.
    for (VehicleState& v : vehicles_) AdvanceVehicle(v, now);

    // 2. Stream orders placed up to now into the engine.
    while (next_order < input_.orders.size() &&
           input_.orders[next_order].placed_at <= now) {
      const Order& o = input_.orders[next_order];
      ++metrics_.per_slot[HourSlot(o.placed_at)].orders_placed;
      core_->Handle(OrderPlaced{o});
      ++next_order;
    }

    // 3. Publish every vehicle's current state. Off-duty vehicles are
    // flagged so the policy never sees them, but the engine still tracks
    // them for the reshuffle strip and reinstatement capacity.
    for (const VehicleState& v : vehicles_) {
      VehicleStateUpdate update;
      update.snapshot.id = v.spec.id;
      update.snapshot.location = v.node;
      update.snapshot.next_destination = v.NextDestination();
      update.snapshot.picked = v.picked;
      update.snapshot.unpicked = v.unpicked;
      update.on_duty =
          now >= v.spec.on_duty_from && now < v.spec.on_duty_until;
      core_->Handle(std::move(update));
    }

    // 4. Close the window: reject → reshuffle → decide inside the engine.
    const WindowResult result = core_->Handle(WindowClosed{now});

    ++metrics_.windows;
    ++metrics_.per_slot[HourSlot(now)].windows;
    metrics_.decision_seconds_total += result.decision_seconds;
    metrics_.decision_seconds_max =
        std::max(metrics_.decision_seconds_max, result.decision_seconds);
    if (result.decision_seconds > delta) {
      ++metrics_.overflown_windows;
      ++metrics_.per_slot[HourSlot(now)].overflown_windows;
    }
    metrics_.cost_evaluations += result.decision.cost_evaluations;
    if (input_.measure_wall_clock) {
      metrics_.phase_batching_seconds += result.decision.batching_seconds;
      metrics_.phase_graph_seconds += result.decision.graph_seconds;
      metrics_.phase_matching_seconds += result.decision.matching_seconds;
    }

    // 5. Mirror the engine's transitions onto our vehicle states.
    ApplyWindowResult(result);

    // 6. Rebuild plans for vehicles whose order set changed. Anchors are
    // resolved serially first (committing a mid-edge step touches the shared
    // metrics); the rebuilds themselves — optimal plan + itinerary, the
    // expensive part — only read the oracle and write their own vehicle, so
    // dirty vehicles are sharded across the engine's pool with results
    // identical to the serial loop.
    const auto rebuild_t0 = std::chrono::steady_clock::now();
    std::vector<std::size_t> dirty;
    std::vector<std::pair<NodeId, Seconds>> anchors;
    for (std::size_t vi = 0; vi < vehicles_.size(); ++vi) {
      if (!vehicles_[vi].dirty) continue;
      dirty.push_back(vi);
      anchors.push_back(ReplanAnchor(vehicles_[vi], now));
    }
    ParallelFor(core_->thread_pool(), dirty.size(), [&](std::size_t d) {
      RebuildPlan(vehicles_[dirty[d]], anchors[d].first, anchors[d].second);
    });
    if (input_.measure_wall_clock) {
      metrics_.phase_rebuild_seconds += std::chrono::duration<double>(
          std::chrono::steady_clock::now() - rebuild_t0).count();
    }

    // Quiescent point: the window is fully mirrored and no event is in
    // flight — where the recovery gates kill and restore a shard.
    if (input_.after_window) input_.after_window(now, metrics_.windows - 1);

    // Early exit: the intake horizon has passed and nothing is in flight.
    if (next_order >= input_.orders.size() && now >= input_.end_time &&
        core_->pending_orders() == 0) {
      bool active = false;
      for (const VehicleState& v : vehicles_) {
        if (!v.picked.empty() || !v.unpicked.empty() ||
            v.itin_pos < v.itinerary.size()) {
          active = true;
          break;
        }
      }
      if (!active) break;
    }
  }

  // Final advance to drain whatever is left within the horizon.
  for (VehicleState& v : vehicles_) AdvanceVehicle(v, hard_end);

  // Orders still somewhere in the system count as pending.
  for (const OrderOutcome& o : outcomes_) {
    if (o.state == OrderOutcome::State::kPendingAtEnd) {
      ++metrics_.orders_pending_at_end;
    }
  }

  SimulationResult result;
  result.metrics = metrics_;
  result.outcomes = outcomes_;
  return result;
}

}  // namespace fm
