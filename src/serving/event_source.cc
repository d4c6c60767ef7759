#include "serving/event_source.h"

#include <algorithm>

#include "common/check.h"

namespace fm {

std::vector<StampedEvent> MakeBatchReplayEvents(
    const std::vector<Vehicle>& fleet, const std::vector<Order>& orders,
    Seconds start) {
  FM_CHECK(std::is_sorted(orders.begin(), orders.end(),
                          [](const Order& a, const Order& b) {
                            return a.placed_at < b.placed_at;
                          }));
  std::vector<StampedEvent> events;
  events.reserve(fleet.size() + orders.size());
  std::uint64_t sequence = 0;
  for (const Vehicle& v : fleet) {
    VehicleSnapshot snap;
    snap.id = v.id;
    snap.location = v.start_node;
    snap.next_destination = v.start_node;
    events.push_back({start, sequence++, VehicleStateUpdate{snap, true}});
  }
  for (const Order& order : orders) {
    events.push_back({order.placed_at, sequence++, OrderPlaced{order}});
  }
  std::sort(events.begin(), events.end(),
            [](const StampedEvent& a, const StampedEvent& b) {
              return StampedBefore(a, b);
            });
  return events;
}

std::vector<WindowResult> ReplayEventStream(
    DispatchCore& core, const std::vector<StampedEvent>& events,
    Seconds start, Seconds end, Seconds delta,
    const std::function<void(Seconds now, std::size_t window_index)>&
        after_window) {
  FM_CHECK_GT(delta, 0.0);
  std::vector<WindowResult> results;
  std::size_t cursor = 0;
  for (Seconds now = start + delta; now <= end; now += delta) {
    for (; cursor < events.size() && events[cursor].timestamp <= now;
         ++cursor) {
      ApplyEvent(core, events[cursor].event);
    }
    results.push_back(core.Handle(WindowClosed{now}));
    if (after_window) after_window(now, results.size() - 1);
  }
  return results;
}

}  // namespace fm
