// Deterministic event replay for dispatch cores.
//
// ReplayOrderStream drives any DispatchCore with the canonical static-fleet
// event stream: every vehicle announced once at its start node, orders
// streamed in placed_at order up to each window boundary, one WindowClosed
// every `delta` over (start, end]. The serving equivalence and determinism
// gates (tests/sharded_engine_test.cc and bench_sharded_serving) both
// replay through this one helper, so the test-side and CI-side checks see
// the same event stream by construction. There are no kinematics here —
// vehicles never move and nothing is delivered; for full replays use
// sim/simulator.h.
//
// This is now a thin wrapper: the stream it synthesizes is
// MakeBatchReplayEvents (serving/event_source.h) and the feed loop is
// ReplayEventStream. The concurrent path (serving/streaming_replay.h)
// pushes the same stamped stream through intake queues instead and must
// produce bit-identical WindowResults — the golden streaming gates in
// tests/streaming_intake_test.cc and bench_stress pin that.
#ifndef FOODMATCH_SERVING_EVENT_REPLAY_H_
#define FOODMATCH_SERVING_EVENT_REPLAY_H_

#include <vector>

#include "common/types.h"
#include "core/dispatch_engine.h"
#include "model/order.h"
#include "model/vehicle.h"

namespace fm {

// `orders` must be sorted by placed_at; `delta` must be positive. Returns
// one WindowResult per window, in window order.
std::vector<WindowResult> ReplayOrderStream(DispatchCore& core,
                                            const std::vector<Vehicle>& fleet,
                                            const std::vector<Order>& orders,
                                            Seconds start, Seconds end,
                                            Seconds delta);

}  // namespace fm

#endif  // FOODMATCH_SERVING_EVENT_REPLAY_H_
