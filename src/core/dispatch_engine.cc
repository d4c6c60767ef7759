#include "core/dispatch_engine.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.h"
#include "obs/trace.h"

namespace fm {

void ApplyEvent(DispatchCore& core, EngineEvent event) {
  std::visit([&core](auto&& e) { core.Handle(std::move(e)); },
             std::move(event));
}

DispatchEngine::DispatchEngine(AssignmentPolicy* policy, const Config& config,
                               DispatchEngineOptions options)
    : policy_(policy), config_(config), options_(options) {
  FM_CHECK(policy_ != nullptr);
  config_.Validate();
  const int lanes = ThreadPool::ResolveThreadCount(config_.threads);
  if (lanes > 1) {
    thread_pool_ = policy_->thread_pool();
    if (thread_pool_ == nullptr) {
      owned_pool_ = std::make_unique<ThreadPool>(lanes);
      thread_pool_ = owned_pool_.get();
    }
  }
}

void DispatchEngine::Handle(OrderPlaced event) {
  pool_.push_back(std::move(event.order));
}

void DispatchEngine::Handle(VehicleStateUpdate event) {
  FM_CHECK_NE(event.snapshot.id, kInvalidVehicle);
  auto it = vehicle_index_.find(event.snapshot.id);
  if (it == vehicle_index_.end()) {
    vehicle_index_.emplace(event.snapshot.id, vehicles_.size());
    vehicles_.push_back({std::move(event.snapshot), event.on_duty});
    return;
  }
  VehicleRecord& record = vehicles_[it->second];
  // Position ping: a bare snapshot (no carried orders) for a vehicle whose
  // record does carry orders adopts only location / destination / duty —
  // the engine's own picked/unpicked bookkeeping is authoritative, and only
  // OrderDelivered / VehicleRetired release orders. Gateway-facing streams
  // (event logs, shift-churn pings) send exactly these bare refreshes;
  // full-state drivers (sim/simulator.h) always mirror their lists, so the
  // ping branch never triggers for them.
  if (event.snapshot.picked.empty() && event.snapshot.unpicked.empty() &&
      !(record.snapshot.picked.empty() &&
        record.snapshot.unpicked.empty())) {
    event.snapshot.picked = record.snapshot.picked;
    event.snapshot.unpicked = record.snapshot.unpicked;
  }
  record.snapshot = std::move(event.snapshot);
  record.on_duty = event.on_duty;
}

void DispatchEngine::Handle(OrderDelivered event) {
  ever_assigned_.erase(event.order);
  if (event.vehicle == kInvalidVehicle) return;
  auto it = vehicle_index_.find(event.vehicle);
  if (it == vehicle_index_.end()) return;
  VehicleSnapshot& v = vehicles_[it->second].snapshot;
  std::erase_if(v.picked, [&](const Order& o) { return o.id == event.order; });
  std::erase_if(v.unpicked,
                [&](const Order& o) { return o.id == event.order; });
}

void DispatchEngine::Handle(VehicleRetired event) {
  auto it = vehicle_index_.find(event.vehicle);
  FM_CHECK_MSG(it != vehicle_index_.end(), "retirement of unknown vehicle");
  const std::size_t index = it->second;
  VehicleRecord& record = vehicles_[index];
  // Not-yet-picked-up orders return to the pool, still allocated (never
  // age-rejected) — exactly the reshuffle-strip semantics. On-board orders
  // leave with the vehicle.
  for (Order& o : record.snapshot.unpicked) {
    ever_assigned_.insert(o.id);
    pool_.push_back(std::move(o));
  }
  vehicles_.erase(vehicles_.begin() + static_cast<std::ptrdiff_t>(index));
  vehicle_index_.erase(it);
  // Remaining vehicles keep their announcement order; later indices shift.
  for (auto& [id, pos] : vehicle_index_) {
    if (pos > index) --pos;
  }
  policy_->OnVehicleRetired(event.vehicle);
}

bool DispatchEngine::VehicleHasInFlight(VehicleId vehicle) const {
  auto it = vehicle_index_.find(vehicle);
  if (it == vehicle_index_.end()) return false;
  const VehicleSnapshot& v = vehicles_[it->second].snapshot;
  return !v.picked.empty() || !v.unpicked.empty();
}

EngineResidentState DispatchEngine::CaptureResidentState() const {
  EngineResidentState state;
  state.pool = pool_;
  state.vehicles.reserve(vehicles_.size());
  for (const VehicleRecord& record : vehicles_) {
    state.vehicles.push_back({record.snapshot, record.on_duty});
  }
  state.ever_assigned.assign(ever_assigned_.begin(), ever_assigned_.end());
  std::sort(state.ever_assigned.begin(), state.ever_assigned.end());
  return state;
}

void DispatchEngine::RestoreResidentState(EngineResidentState state) {
  FM_CHECK_MSG(pool_.empty() && vehicles_.empty() && ever_assigned_.empty(),
               "resident state can only be restored into a fresh engine");
  pool_ = std::move(state.pool);
  vehicles_.reserve(state.vehicles.size());
  for (EngineResidentState::VehicleEntry& entry : state.vehicles) {
    vehicle_index_.emplace(entry.snapshot.id, vehicles_.size());
    vehicles_.push_back({std::move(entry.snapshot), entry.on_duty});
  }
  ever_assigned_.insert(state.ever_assigned.begin(),
                        state.ever_assigned.end());
}

bool DispatchEngine::Fits(const VehicleRecord& record,
                          const Order& order) const {
  const VehicleSnapshot& v = record.snapshot;
  return static_cast<int>(v.picked.size() + v.unpicked.size()) <
             config_.max_orders_per_vehicle &&
         TotalItems(v.picked) + TotalItems(v.unpicked) + order.items <=
             config_.max_items_per_vehicle;
}

WindowResult DispatchEngine::Handle(const WindowClosed& event) {
  obs::ScopedSpan window_span("engine.window", "engine");
  const Seconds now = event.now;
  WindowResult result;
  result.now = now;

  // 1. Age out orders that stayed unallocated beyond the limit. An order
  // assigned at least once is "allocated" in the paper's sense even if
  // reshuffling has returned it to the pool, so it is never rejected.
  for (auto it = pool_.begin(); it != pool_.end();) {
    if (ever_assigned_.count(it->id) == 0 &&
        now - it->placed_at > config_.max_unassigned_age) {
      result.rejected.push_back(it->id);
      it = pool_.erase(it);
    } else {
      ++it;
    }
  }

  // 2. Reshuffling (§IV-D2): strip not-yet-picked-up orders from every
  // vehicle back into the pool, remembering the incumbent. If the matching
  // does not reassign one, it goes back to its incumbent below — the
  // paper's reshuffling offers a *better* vehicle, it never revokes an
  // allocation.
  std::unordered_map<OrderId, std::size_t> incumbent;
  if (policy_->wants_reshuffle()) {
    for (std::size_t vi = 0; vi < vehicles_.size(); ++vi) {
      VehicleSnapshot& v = vehicles_[vi].snapshot;
      if (v.unpicked.empty()) continue;
      for (Order& o : v.unpicked) {
        incumbent[o.id] = vi;
        // A stripped order was by definition allocated — mark it so, even
        // when the allocation predates this engine (a warm start from a
        // VehicleStateUpdate that already carried unpicked orders); it must
        // never become reject-eligible by re-entering the pool.
        ever_assigned_.insert(o.id);
        pool_.push_back(std::move(o));
      }
      v.unpicked.clear();
      result.reshuffled_vehicles.push_back(v.id);
    }
  }

  // 3. Snapshot list for the policy: on-duty vehicles in announcement
  // order.
  snapshots_.clear();
  snapshots_.reserve(vehicles_.size());
  for (const VehicleRecord& record : vehicles_) {
    if (record.on_duty) snapshots_.push_back(record.snapshot);
  }

  // 4. The assignment decision (timed — the overflow measurement of §V-E).
  const auto t0 = std::chrono::steady_clock::now();
  result.decision = policy_->Assign(pool_, snapshots_, now);
  if (options_.measure_wall_clock) {
    result.decision_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }

  if (observer_) {
    WindowView view;
    view.now = now;
    view.pool = &pool_;
    view.snapshots = &snapshots_;
    view.decision = &result.decision;
    observer_(view);
  }

  // 5. Apply the assignments to the pool and the engine's vehicle
  // bookkeeping (the driver mirrors them onto its own vehicle state).
  for (const AssignmentDecision::Item& item : result.decision.assignments) {
    auto vit = vehicle_index_.find(item.vehicle);
    FM_CHECK_MSG(vit != vehicle_index_.end(), "assignment to unknown vehicle");
    VehicleRecord& record = vehicles_[vit->second];
    for (const Order& order : item.orders) {
      auto pit = std::find_if(pool_.begin(), pool_.end(), [&](const Order& o) {
        return o.id == order.id;
      });
      FM_CHECK_MSG(pit != pool_.end(), "assignment of an order not in the pool");
      record.snapshot.unpicked.push_back(*pit);
      pool_.erase(pit);
      ever_assigned_.insert(order.id);
    }
    const VehicleSnapshot& v = record.snapshot;
    FM_CHECK_LE(static_cast<int>(v.picked.size() + v.unpicked.size()),
                config_.max_orders_per_vehicle);
    FM_CHECK_LE(TotalItems(v.picked) + TotalItems(v.unpicked),
                config_.max_items_per_vehicle);
  }

  // 6. Stripped orders the matching did not reassign fall back to their
  // incumbent vehicle (capacity permitting — a new batch may have taken the
  // slot, in which case the order waits in the pool, still counted as
  // allocated for rejection purposes).
  if (!incumbent.empty()) {
    for (auto it = pool_.begin(); it != pool_.end();) {
      auto inc = incumbent.find(it->id);
      if (inc == incumbent.end()) {
        ++it;
        continue;
      }
      VehicleRecord& record = vehicles_[inc->second];
      if (Fits(record, *it)) {
        record.snapshot.unpicked.push_back(*it);
        result.reinstatements.push_back({*it, record.snapshot.id});
        it = pool_.erase(it);
      } else {
        ++it;
      }
    }
  }

  return result;
}

}  // namespace fm
