// The canonical stamped event stream and its synchronous feed loop.
//
// MakeBatchReplayEvents synthesizes the static-fleet stream from a fleet +
// sorted order list; event logs on disk (serving/event_log.h) and the stress
// generator (stress/stress_gen.h) produce the same StampedEvent vectors.
// ReplayEventStream feeds such a stream synchronously; StreamReplay
// (serving/streaming_replay.h) pushes it through intake queues from
// producer threads instead, and the equivalence gates assert the two
// bit-identical.
//
// Stream contract: a stream is a vector of StampedEvents in nondecreasing
// (timestamp, sequence) order with sequences unique across the stream. The
// stamps ARE the canonical order — any consumer that re-sorts by
// StampedBefore (core/window_executor.h) reconstructs exactly this stream.
#ifndef FOODMATCH_SERVING_EVENT_SOURCE_H_
#define FOODMATCH_SERVING_EVENT_SOURCE_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/types.h"
#include "core/dispatch_engine.h"
#include "model/order.h"
#include "model/vehicle.h"

namespace fm {

// Builds the canonical static-fleet batch-replay stream: every vehicle
// announced once at `start` (sequences 0..fleet-1, announcement order),
// then one OrderPlaced per order stamped at its placed_at (sequences
// continuing in placed_at order). `orders` must be sorted by placed_at.
// The result is sorted by (timestamp, sequence) — orders placed before
// `start` precede the fleet announcements, which is immaterial to every
// DispatchCore (order intake and vehicle announcements commute; both only
// become visible at the next WindowClosed).
std::vector<StampedEvent> MakeBatchReplayEvents(
    const std::vector<Vehicle>& fleet, const std::vector<Order>& orders,
    Seconds start);

// Drives `core` synchronously from `events` (sorted as above): each window
// feeds every event with timestamp <= now in stream order, then closes the
// window. Windows run at start+delta, start+2*delta, ... while <= end.
// Events stamped beyond `end` are never applied. Returns one WindowResult
// per window. `after_window`, when set, runs after each window's result is
// recorded — a quiescent point (no event in flight), which is what the
// recovery drivers use to kill and restore a shard mid-replay
// (bench_recovery, tests/recovery_test.cc).
std::vector<WindowResult> ReplayEventStream(
    DispatchCore& core, const std::vector<StampedEvent>& events,
    Seconds start, Seconds end, Seconds delta,
    const std::function<void(Seconds now, std::size_t window_index)>&
        after_window = {});

}  // namespace fm

#endif  // FOODMATCH_SERVING_EVENT_SOURCE_H_
