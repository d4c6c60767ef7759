#include "core/intake_stage.h"

#include <chrono>
#include <thread>
#include <utility>
#include <variant>

#include "common/check.h"

namespace fm {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

bool ValidEngineEvent(const EngineEvent& event) {
  struct Visitor {
    bool operator()(const OrderPlaced& e) const {
      const Order& o = e.order;
      return o.id != kInvalidOrder && o.restaurant != kInvalidNode &&
             o.customer != kInvalidNode && o.items > 0 && o.prep_time >= 0.0 &&
             o.placed_at >= 0.0;
    }
    bool operator()(const VehicleStateUpdate& e) const {
      return e.snapshot.id != kInvalidVehicle &&
             e.snapshot.location != kInvalidNode;
    }
    bool operator()(const OrderDelivered& e) const {
      return e.order != kInvalidOrder;
    }
    bool operator()(const VehicleRetired& e) const {
      return e.vehicle != kInvalidVehicle;
    }
  };
  return std::visit(Visitor{}, event);
}

IntakeStage::IntakeStage(const IntakeOptions& options)
    : options_(options), queue_(options.queue_capacity) {
  FM_CHECK_GE(options.queue_capacity, 1u);
}

void IntakeStage::Prestage(const StampedEvent& event) {
  const OrderPlaced* placed = std::get_if<OrderPlaced>(&event.event);
  if (placed == nullptr) return;
  // The answer is discarded — Duration is pure, so querying it early cannot
  // change any later answer.
  options_.oracle->Duration(placed->order.restaurant, placed->order.customer,
                            placed->order.ready_at());
  prestaged_.fetch_add(1, std::memory_order_relaxed);
}

AbsorbResult IntakeStage::TryAbsorb(StampedEvent event) {
  const Clock::time_point start =
      absorb_seconds_ != nullptr ? Clock::now() : Clock::time_point{};
  if (!ValidEngineEvent(event.event)) {
    dropped_invalid_.fetch_add(1, std::memory_order_relaxed);
    return AbsorbResult::kDroppedInvalid;
  }
  if (options_.prestage && options_.oracle != nullptr) Prestage(event);
  if (!queue_.TryPush(std::move(event))) return AbsorbResult::kBackpressure;
  absorbed_.fetch_add(1, std::memory_order_relaxed);
  if (absorb_seconds_ != nullptr) absorb_seconds_->Observe(SecondsSince(start));
  return AbsorbResult::kStaged;
}

bool IntakeStage::Absorb(StampedEvent event) {
  const Clock::time_point start =
      absorb_seconds_ != nullptr ? Clock::now() : Clock::time_point{};
  if (!ValidEngineEvent(event.event)) {
    dropped_invalid_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (options_.prestage && options_.oracle != nullptr) Prestage(event);
  queue_.Push(std::move(event));
  absorbed_.fetch_add(1, std::memory_order_relaxed);
  if (absorb_seconds_ != nullptr) absorb_seconds_->Observe(SecondsSince(start));
  return true;
}

std::size_t IntakeStage::DrainInto(std::vector<StampedEvent>* out) {
  return queue_.DrainInto(out);
}

}  // namespace fm
