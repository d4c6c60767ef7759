// The execute half of the streaming intake/executor split.
//
// A WindowExecutor fronts any DispatchCore (one DispatchEngine, or a
// ShardedDispatchEngine — it is itself a DispatchCore, so drivers cannot
// tell the difference) with one or more IntakeStages. Producers absorb
// stamped events into the stages concurrently; when the driver's clock
// closes a window, the executor
//
//   1. drains every stage (plus anything retained from earlier windows),
//   2. splits off the events with timestamp <= now — later ones stay
//      staged for a future window,
//   3. sorts the due batch by (timestamp, sequence) — the canonical stream
//      order, erasing whatever interleaving the producers and queues
//      introduced — and replays it into the core one event at a time,
//   4. closes the core's window and returns its WindowResult.
//
// Determinism contract: given the same set of stamped events and the same
// window boundaries, the wrapped core sees the exact event sequence a
// synchronous driver would have fed it, for ANY number of producers, intake
// stages, and any queue interleaving. Streaming replay is therefore
// bit-identical to batch replay — asserted by tests/streaming_intake_test.cc
// and gated in bench_stress. Sequences must be unique per stream
// (core/engine_event.h).
//
// Stage routing: with multiple stages, `router` maps each event to a stage
// (serving uses the region partitioner so each shard of a sharded core gets
// its own front queue; see serving/streaming_replay.h). The route only
// spreads producer contention — the drain merges all stages before sorting,
// so ANY deterministic or even racy route yields identical results.
//
// Thread safety: Submit/TrySubmit from any number of producer threads.
// CloseWindow, PumpIntake, the DispatchCore overrides, and the accessors
// below are consumer-thread-only. Producers must quiesce before the
// consumer destroys the executor.
//
// The DispatchCore overrides let a single-threaded driver (sim/simulator.h)
// use the executor as a drop-in core ("fmsim --stream"): each Handle call
// stamps the event with the executor's own monotone sequence (timestamp 0,
// so every event is due at the next window — exactly the synchronous
// engine's visibility). Handle runs on the consumer thread and therefore
// resolves backpressure by pumping the queues inline instead of blocking.
#ifndef FOODMATCH_CORE_WINDOW_EXECUTOR_H_
#define FOODMATCH_CORE_WINDOW_EXECUTOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/dispatch_engine.h"
#include "core/intake_stage.h"
#include "obs/metrics_registry.h"

namespace fm {

// Maps a stamped event to the intake stage that should hold it. Must be
// safe for concurrent callers and return a value in [0, stages).
using StageRouter = std::function<std::size_t(const StampedEvent&)>;

struct WindowExecutorOptions {
  // Number of intake stages (>= 1). Serving fronts a K-sharded core with K
  // stages; a single engine needs just one.
  int stages = 1;
  // Per-stage ring capacity and prestage knobs (Config::intake_queue_capacity
  // / Config::intake_prestage are the validated sources).
  std::size_t queue_capacity = 4096;
  bool prestage = true;
  // Oracle for producer-side pre-routing; null disables prestaging.
  const DistanceOracle* oracle = nullptr;
  // Stage route; null sends events to stage `sequence % stages` (an
  // arbitrary deterministic spread — results never depend on the route).
  StageRouter router;
  // Observability registry. When set, the executor registers the intake /
  // executor / core instrument set (docs/OBSERVABILITY.md), records
  // per-window drain/sort/replay timings into owned histograms, and hands
  // every stage the intake.absorb_seconds histogram. The
  // registry must outlive the executor; null disables everything
  // (including the timing clock reads). Snapshot from the consumer thread
  // — producer-side counters are racy monitoring reads by design.
  obs::MetricsRegistry* metrics = nullptr;
};

class WindowExecutor : public DispatchCore {
 public:
  // `core` must outlive the executor and must not be fed events behind the
  // executor's back between Submit and CloseWindow.
  WindowExecutor(DispatchCore* core, const WindowExecutorOptions& options);
  ~WindowExecutor() override;

  WindowExecutor(const WindowExecutor&) = delete;
  WindowExecutor& operator=(const WindowExecutor&) = delete;

  // ---- Producer API (any thread) ----

  // Absorbs into the routed stage, spinning through backpressure (the
  // consumer must keep pumping or closing windows). Returns false iff the
  // event was shed as invalid.
  bool Submit(StampedEvent event);

  // Non-blocking variant; kBackpressure hands the retry/shed decision to
  // the caller.
  AbsorbResult TrySubmit(StampedEvent event);

  // ---- Consumer API (one thread) ----

  // Drains the stages into the retained buffer without applying anything.
  // Call from the consumer while producers are blocked on a full ring —
  // e.g. once per poll loop in a serving driver.
  void PumpIntake();

  // Steps 1–4 above: drain, split by `now`, sort, replay, close the
  // wrapped core's window.
  WindowResult CloseWindow(Seconds now);

  // ---- DispatchCore (consumer thread; see the file comment) ----
  void Handle(OrderPlaced event) override;
  void Handle(VehicleStateUpdate event) override;
  void Handle(OrderDelivered event) override;
  void Handle(VehicleRetired event) override;
  WindowResult Handle(const WindowClosed& event) override {
    return CloseWindow(event.now);
  }
  void set_observer(WindowObserver observer) override;
  // Orders waiting in the core's pools PLUS orders staged in the intake
  // (absorbed but not yet drained into a pool).
  std::size_t pending_orders() const override;
  ThreadPool* thread_pool() const override;

  // ---- Introspection ----

  const DispatchCore& core() const { return *core_; }
  int num_stages() const { return static_cast<int>(stages_.size()); }
  const IntakeStage& stage(int s) const { return *stages_[s]; }

  // Events retained from past drains whose timestamp lies beyond the last
  // closed window (consumer thread).
  std::size_t retained_events() const { return retained_.size(); }

  // Sums over stages (any thread).
  std::uint64_t absorbed() const;
  std::uint64_t dropped_invalid() const;
  std::uint64_t blocked_pushes() const;

 private:
  // Stamps a consumer-thread event for the decorator path.
  StampedEvent Stamp(EngineEvent event);

  // Registers the executor's instrument set on options_.metrics.
  void RegisterMetrics();

  // Owned by options_.metrics; all null when no registry was given (one
  // null check gates every timing clock read).
  struct OwnedInstruments {
    obs::Histogram* drain_seconds = nullptr;
    obs::Histogram* sort_seconds = nullptr;
    obs::Histogram* replay_seconds = nullptr;
    obs::Histogram* decision_seconds = nullptr;
    obs::Counter* windows = nullptr;
    obs::Counter* events_replayed = nullptr;
    obs::Counter* orders_assigned = nullptr;
    obs::Counter* orders_rejected = nullptr;
    obs::Counter* vehicles_reshuffled = nullptr;
    obs::Counter* reinstatements = nullptr;
  };

  DispatchCore* core_;
  WindowExecutorOptions options_;
  std::vector<std::unique_ptr<IntakeStage>> stages_;

  // Consumer-side buffer: drained-but-not-yet-due events, unsorted.
  std::vector<StampedEvent> retained_;
  // Scratch for the due batch (kept to reuse capacity across windows).
  std::vector<StampedEvent> due_;

  // Sequence source for the Handle decorator path (consumer thread only,
  // but atomic so mixed Submit/Handle streams stay unique).
  std::atomic<std::uint64_t> next_sequence_{0};
  // Orders absorbed but not yet applied to the core (approximate across
  // threads; exact on the consumer thread between windows).
  std::atomic<std::int64_t> staged_orders_{0};

  OwnedInstruments obs_;
};

}  // namespace fm

#endif  // FOODMATCH_CORE_WINDOW_EXECUTOR_H_
