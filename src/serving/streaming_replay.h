// Concurrent streaming replay: producer threads push a stamped event stream
// through intake queues while the consumer closes accumulation windows.
//
// This is the serving-side harness over the core intake/executor split
// (core/intake_stage.h, core/window_executor.h). StreamReplay takes the
// same canonical event stream ReplayEventStream feeds synchronously
// (serving/event_source.h) and runs it the way a live gateway would:
//
//   * the stream is split into P contiguous chunks, one free-running
//     producer thread each; producers absorb events into the executor's
//     staging rings as fast as the throttle allows — including events whose
//     window is far in the future (the executor retains them);
//   * the consumer thread pumps the rings and closes each window `now` only
//     once every producer's *watermark* — the timestamp of its next
//     unsubmitted event — has passed `now`. The watermark is the streaming
//     analogue of ReplayEventStream's cursor: it guarantees every event due
//     at `now` is staged before the window closes, for any thread timing.
//
// Determinism: chunks are contiguous ranges of a (timestamp, sequence)-
// sorted stream, so each producer submits in nondecreasing timestamp order
// and the watermark bound is exact; the executor's drain sort then restores
// the canonical order. StreamReplay is therefore bit-identical to
// ReplayEventStream over the same events for ANY producer count, stage
// count, queue capacity, and throttle — the golden gates in
// tests/streaming_intake_test.cc and bench_stress pin this.
//
// Throttling: speedup S > 0 paces ingestion against the wall clock at S
// event-seconds per wall-second (S = 1 is real time) and holds each window
// close until its boundary arrives on the accelerated clock; S = 0 runs
// everything flat out (the throughput-measurement mode).
#ifndef FOODMATCH_SERVING_STREAMING_REPLAY_H_
#define FOODMATCH_SERVING_STREAMING_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/window_executor.h"
#include "serving/region_partitioner.h"

namespace fm {

// A stage route for region-sharded cores: orders go to the stage of their
// restaurant's shard, vehicle updates to their location's shard, and
// retire/deliver events to their id modulo the shard count. With one intake
// stage per shard this keeps each shard's events in its own front queue.
// (Like every route, it only spreads producer contention — results are
// route-independent.)
StageRouter MakeRegionStageRouter(const RegionPartitioner* partitioner);

// Observability from one StreamReplay run.
struct StreamReplayStats {
  std::uint64_t events_submitted = 0;
  std::uint64_t orders_submitted = 0;
  std::uint64_t dropped_invalid = 0;
  // Blocking pushes that found a staging ring full (backpressure events).
  std::uint64_t blocked_pushes = 0;
  // Wall clock from ingest start to the last window close.
  double wall_seconds = 0.0;
};

struct StreamReplayOptions {
  // Producer thread count (>= 1; the stream is split into this many
  // contiguous chunks).
  int producers = 1;
  // Forwarded to WindowExecutorOptions.
  int stages = 1;
  std::size_t queue_capacity = 4096;
  bool prestage = true;
  const DistanceOracle* oracle = nullptr;
  StageRouter router;
  // Observability registry, forwarded to the WindowExecutor (which
  // registers the intake/executor/core instrument set on it). Null
  // disables; see core/window_executor.h.
  obs::MetricsRegistry* metrics = nullptr;
  // Event-seconds per wall-second; 0 disables throttling.
  double speedup = 0.0;
  // Optional stats sink (overwritten).
  StreamReplayStats* stats = nullptr;
  // Runs on the consumer thread after each window close — the core is
  // quiescent there (producers only touch the staging rings; the core is
  // driven solely by the consumer), so a durable driver can kill and
  // restore a shard here mid-stream (tools/fmserve.cc --restore).
  std::function<void(Seconds now, std::size_t window_index)> on_window_closed;
};

// Streams `events` (sorted by (timestamp, sequence), unique sequences) into
// `core` through a WindowExecutor, closing one window every `delta` over
// (start, end]. Events stamped beyond `end` are never submitted. Returns
// one WindowResult per window — bit-identical to
// ReplayEventStream(core, events, start, end, delta).
std::vector<WindowResult> StreamReplay(DispatchCore& core,
                                       const std::vector<StampedEvent>& events,
                                       Seconds start, Seconds end,
                                       Seconds delta,
                                       const StreamReplayOptions& options);

}  // namespace fm

#endif  // FOODMATCH_SERVING_STREAMING_REPLAY_H_
