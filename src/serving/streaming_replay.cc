#include "serving/streaming_replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <utility>
#include <variant>

#include "common/check.h"

namespace fm {

StageRouter MakeRegionStageRouter(const RegionPartitioner* partitioner) {
  FM_CHECK(partitioner != nullptr);
  return [partitioner](const StampedEvent& stamped) -> std::size_t {
    const int shards = partitioner->num_shards();
    struct Visitor {
      const RegionPartitioner* partitioner;
      int shards;
      std::size_t operator()(const OrderPlaced& e) const {
        return static_cast<std::size_t>(
            partitioner->ShardOfNode(e.order.restaurant));
      }
      std::size_t operator()(const VehicleStateUpdate& e) const {
        return static_cast<std::size_t>(
            partitioner->ShardOfNode(e.snapshot.location));
      }
      std::size_t operator()(const OrderDelivered& e) const {
        return static_cast<std::size_t>(e.order) %
               static_cast<std::size_t>(shards);
      }
      std::size_t operator()(const VehicleRetired& e) const {
        return static_cast<std::size_t>(e.vehicle) %
               static_cast<std::size_t>(shards);
      }
    };
    return std::visit(Visitor{partitioner, shards}, stamped.event);
  };
}

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point epoch) {
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

// One producer's progress: the timestamp of its next unsubmitted event.
// Everything the producer has submitted is stamped strictly before any
// event at or beyond the watermark, so once every watermark has passed
// `now` the consumer knows the staging rings hold (or already drained)
// every event due at `now`.
struct Watermark {
  std::atomic<double> value{0.0};
};

}  // namespace

std::vector<WindowResult> StreamReplay(DispatchCore& core,
                                       const std::vector<StampedEvent>& events,
                                       Seconds start, Seconds end,
                                       Seconds delta,
                                       const StreamReplayOptions& options) {
  FM_CHECK_GT(delta, 0.0);
  FM_CHECK_GE(options.producers, 1);
  FM_CHECK_GE(options.speedup, 0.0);
  FM_CHECK(std::is_sorted(events.begin(), events.end(),
                          [](const StampedEvent& a, const StampedEvent& b) {
                            return StampedBefore(a, b);
                          }));

  WindowExecutorOptions executor_options;
  executor_options.stages = options.stages;
  executor_options.queue_capacity = options.queue_capacity;
  executor_options.prestage = options.prestage;
  executor_options.oracle = options.oracle;
  executor_options.router = options.router;
  executor_options.metrics = options.metrics;
  WindowExecutor executor(&core, executor_options);

  // Only events a window will ever see; later ones would sit retained
  // forever, so they are never submitted (matching ReplayEventStream, which
  // leaves them unread).
  const std::size_t submittable = static_cast<std::size_t>(
      std::partition_point(events.begin(), events.end(),
                           [end](const StampedEvent& e) {
                             return e.timestamp <= end;
                           }) -
      events.begin());

  const int producers =
      static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(options.producers),
          std::max<std::size_t>(submittable, 1)));
  std::vector<Watermark> watermarks(static_cast<std::size_t>(producers));
  std::vector<std::uint64_t> submitted_counts(
      static_cast<std::size_t>(producers), 0);
  std::vector<std::uint64_t> order_counts(static_cast<std::size_t>(producers),
                                          0);

  const Clock::time_point epoch = Clock::now();
  const double speedup = options.speedup;

  auto produce = [&](int p) {
    const std::size_t chunk =
        (submittable + static_cast<std::size_t>(producers) - 1) /
        static_cast<std::size_t>(producers);
    const std::size_t lo = static_cast<std::size_t>(p) * chunk;
    const std::size_t hi = std::min(submittable, lo + chunk);
    Watermark& watermark = watermarks[static_cast<std::size_t>(p)];
    for (std::size_t i = lo; i < hi; ++i) {
      const StampedEvent& event = events[i];
      watermark.value.store(event.timestamp, std::memory_order_release);
      if (speedup > 0.0) {
        const double target = (event.timestamp - start) / speedup;
        while (SecondsSince(epoch) < target) std::this_thread::yield();
      }
      const bool is_order = std::holds_alternative<OrderPlaced>(event.event);
      if (executor.Submit(event)) {
        ++submitted_counts[static_cast<std::size_t>(p)];
        if (is_order) ++order_counts[static_cast<std::size_t>(p)];
      }
    }
    watermark.value.store(std::numeric_limits<double>::infinity(),
                          std::memory_order_release);
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers) - 1);
  for (int p = 1; p < producers; ++p) {
    threads.emplace_back(produce, p);
  }

  std::vector<WindowResult> results;
  double wall_seconds = 0.0;
  {
    // Producer 0 gets its own thread too (the calling thread is purely the
    // consumer): even with producers = 1 the stream must free-run against
    // the window clock, or backpressure could deadlock the single thread.
    std::thread producer0(produce, 0);

    auto min_watermark = [&]() {
      double m = std::numeric_limits<double>::infinity();
      for (const Watermark& w : watermarks) {
        m = std::min(m, w.value.load(std::memory_order_acquire));
      }
      return m;
    };

    for (Seconds now = start + delta; now <= end; now += delta) {
      if (speedup > 0.0) {
        const double target = (now - start) / speedup;
        while (SecondsSince(epoch) < target) {
          executor.PumpIntake();
          std::this_thread::yield();
        }
      }
      // Close only once every producer has moved past `now` — the
      // streaming analogue of the synchronous cursor. Pump while waiting
      // so producers blocked on a full ring can make progress.
      while (min_watermark() <= now) {
        executor.PumpIntake();
        std::this_thread::yield();
      }
      results.push_back(executor.CloseWindow(now));
      if (options.on_window_closed) {
        options.on_window_closed(now, results.size() - 1);
      }
    }
    wall_seconds = SecondsSince(epoch);

    producer0.join();
  }
  for (std::thread& t : threads) t.join();

  if (options.stats != nullptr) {
    StreamReplayStats& stats = *options.stats;
    stats = StreamReplayStats{};
    for (int p = 0; p < producers; ++p) {
      stats.events_submitted += submitted_counts[static_cast<std::size_t>(p)];
      stats.orders_submitted += order_counts[static_cast<std::size_t>(p)];
    }
    stats.dropped_invalid = executor.dropped_invalid();
    stats.blocked_pushes = executor.blocked_pushes();
    stats.wall_seconds = wall_seconds;
  }
  return results;
}

}  // namespace fm
