#include "core/window_executor.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <variant>

#include "common/check.h"
#include "obs/trace.h"

namespace fm {

WindowExecutor::WindowExecutor(DispatchCore* core,
                               const WindowExecutorOptions& options)
    : core_(core), options_(options) {
  FM_CHECK(core_ != nullptr);
  FM_CHECK_GE(options_.stages, 1);
  IntakeOptions stage_options;
  stage_options.queue_capacity = options_.queue_capacity;
  stage_options.prestage = options_.prestage;
  stage_options.oracle = options_.oracle;
  stages_.reserve(static_cast<std::size_t>(options_.stages));
  for (int s = 0; s < options_.stages; ++s) {
    stages_.push_back(std::make_unique<IntakeStage>(stage_options));
  }
  if (options_.metrics != nullptr) RegisterMetrics();
}

void WindowExecutor::RegisterMetrics() {
  obs::MetricsRegistry& reg = *options_.metrics;
  // Intake: the pre-existing stage counters stay the source of truth; the
  // registry samples them through callbacks (thin reads).
  reg.RegisterCallbackCounter("intake.absorbed",
                              "events absorbed into the staging rings",
                              [this] { return absorbed(); }, this);
  reg.RegisterCallbackCounter("intake.dropped_invalid",
                              "events shed by intake validation",
                              [this] { return dropped_invalid(); }, this);
  reg.RegisterCallbackCounter(
      "intake.blocked_pushes",
      "producer pushes that found a staging ring full (backpressure)",
      [this] { return blocked_pushes(); }, this);
  reg.RegisterCallbackGauge(
      "intake.queue_depth",
      "events currently staged across all rings (racy estimate)", [this] {
        std::size_t depth = 0;
        for (const auto& stage : stages_) depth += stage->queue_depth();
        return static_cast<double>(depth);
      },
      this);
  reg.RegisterCallbackGauge(
      "executor.retained_events",
      "drained events retained for a future window (consumer thread)",
      [this] { return static_cast<double>(retained_.size()); }, this);
  reg.RegisterCallbackGauge(
      "core.pending_orders",
      "orders waiting in the core's pools plus staged intake",
      [this] { return static_cast<double>(pending_orders()); }, this);
  obs::Histogram& absorb_seconds = reg.RegisterHistogram(
      "intake.absorb_seconds",
      "one accepted absorb: validation, pre-routing and the push "
      "(producer threads)",
      obs::LatencyBoundaries());
  for (const auto& stage : stages_) {
    stage->set_absorb_histogram(&absorb_seconds);
  }
  // Executor: per-window close timings and decision tallies, owned here.
  obs_.drain_seconds = &reg.RegisterHistogram(
      "executor.drain_seconds", "per-window drain + due/future split",
      obs::LatencyBoundaries());
  obs_.sort_seconds = &reg.RegisterHistogram(
      "executor.sort_seconds", "per-window canonical-order sort",
      obs::LatencyBoundaries());
  obs_.replay_seconds = &reg.RegisterHistogram(
      "executor.replay_seconds", "per-window replay into the core",
      obs::LatencyBoundaries());
  obs_.decision_seconds = &reg.RegisterHistogram(
      "engine.decision_seconds",
      "core decision wall clock per window (0 unless measured)",
      obs::LatencyBoundaries());
  obs_.windows =
      &reg.RegisterCounter("executor.windows", "windows closed");
  obs_.events_replayed = &reg.RegisterCounter(
      "executor.events_replayed", "due events replayed into the core");
  obs_.orders_assigned = &reg.RegisterCounter(
      "engine.orders_assigned", "orders assigned by window decisions");
  obs_.orders_rejected = &reg.RegisterCounter(
      "engine.orders_rejected", "orders rejected past their patience bound");
  obs_.vehicles_reshuffled = &reg.RegisterCounter(
      "engine.vehicles_reshuffled",
      "vehicles stripped for reshuffle by window decisions");
  obs_.reinstatements = &reg.RegisterCounter(
      "engine.reinstatements", "stripped orders reinstated to the pool");
}

WindowExecutor::~WindowExecutor() {
  // The callbacks above read executor state; freeze their last values so a
  // registry that outlives this executor (the telemetry final sample, the
  // bench report) keeps exposing them safely.
  if (options_.metrics != nullptr) options_.metrics->FreezeCallbacks(this);
}

namespace {

bool IsOrderPlaced(const EngineEvent& event) {
  return std::holds_alternative<OrderPlaced>(event);
}

}  // namespace

namespace {

// Order id of an OrderPlaced event, for the async lifecycle markers. Only
// evaluated while tracing is enabled.
std::uint64_t PlacedOrderId(const EngineEvent& event) {
  return std::get<OrderPlaced>(event).order.id;
}

}  // namespace

bool WindowExecutor::Submit(StampedEvent event) {
  const bool counts = IsOrderPlaced(event.event);
  const bool tracing = counts && obs::Tracer::Global().enabled();
  const std::uint64_t order_id = tracing ? PlacedOrderId(event.event) : 0;
  IntakeStage& stage =
      *stages_[options_.router
                   ? options_.router(event) % stages_.size()
                   : static_cast<std::size_t>(event.sequence) % stages_.size()];
  if (!stage.Absorb(std::move(event))) return false;
  if (counts) staged_orders_.fetch_add(1, std::memory_order_relaxed);
  if (tracing) obs::EmitOrderLifecycle('b', "order", order_id);
  return true;
}

AbsorbResult WindowExecutor::TrySubmit(StampedEvent event) {
  const bool counts = IsOrderPlaced(event.event);
  const bool tracing = counts && obs::Tracer::Global().enabled();
  const std::uint64_t order_id = tracing ? PlacedOrderId(event.event) : 0;
  IntakeStage& stage =
      *stages_[options_.router
                   ? options_.router(event) % stages_.size()
                   : static_cast<std::size_t>(event.sequence) % stages_.size()];
  const AbsorbResult result = stage.TryAbsorb(std::move(event));
  if (result == AbsorbResult::kStaged && counts) {
    staged_orders_.fetch_add(1, std::memory_order_relaxed);
    if (tracing) obs::EmitOrderLifecycle('b', "order", order_id);
  }
  return result;
}

void WindowExecutor::PumpIntake() {
  for (const auto& stage : stages_) stage->DrainInto(&retained_);
}

WindowResult WindowExecutor::CloseWindow(Seconds now) {
  obs::ScopedSpan window_span("executor.window", "executor");
  const bool tracing = obs::Tracer::Global().enabled();
  // Fine-grained step timings exist only when a registry is attached;
  // without one this reads no clock at all.
  const bool timed = obs_.windows != nullptr;
  using Clock = std::chrono::steady_clock;
  Clock::time_point t_open, t_split, t_sort, t_replay;
  if (timed) t_open = Clock::now();
  PumpIntake();
  // Split the retained buffer: events due at `now` move to the sort
  // scratch, later ones stay staged for a future window.
  due_.clear();
  std::size_t keep = 0;
  for (StampedEvent& e : retained_) {
    if (e.timestamp <= now) {
      due_.push_back(std::move(e));
    } else {
      retained_[keep++] = std::move(e);
    }
  }
  retained_.resize(keep);
  if (timed) t_split = Clock::now();
  // The canonical stream order. Sequences are unique per stream, so this
  // is a total order and the replay below is independent of producer
  // count, stage count, and every queue interleaving.
  std::sort(due_.begin(), due_.end(),
            [](const StampedEvent& a, const StampedEvent& b) {
              return StampedBefore(a, b);
            });
  if (timed) t_sort = Clock::now();
  for (StampedEvent& e : due_) {
    if (IsOrderPlaced(e.event)) {
      staged_orders_.fetch_sub(1, std::memory_order_relaxed);
      if (tracing) {
        obs::EmitOrderLifecycle('n', "order.drain", PlacedOrderId(e.event));
      }
    }
    ApplyEvent(*core_, std::move(e.event));
  }
  const std::size_t replayed = due_.size();
  due_.clear();
  if (timed) t_replay = Clock::now();
  WindowResult result = core_->Handle(WindowClosed{now});
  if (timed) {
    const auto seconds = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double>(b - a).count();
    };
    obs_.drain_seconds->Observe(seconds(t_open, t_split));
    obs_.sort_seconds->Observe(seconds(t_split, t_sort));
    obs_.replay_seconds->Observe(seconds(t_sort, t_replay));
    obs_.decision_seconds->Observe(result.decision_seconds);
    obs_.windows->Increment();
    obs_.events_replayed->Add(replayed);
    std::uint64_t assigned = 0;
    for (const auto& item : result.decision.assignments) {
      assigned += item.orders.size();
    }
    obs_.orders_assigned->Add(assigned);
    obs_.orders_rejected->Add(result.rejected.size());
    obs_.vehicles_reshuffled->Add(result.reshuffled_vehicles.size());
    obs_.reinstatements->Add(result.reinstatements.size());
  }
  if (tracing) {
    // The decision settles orders either way: assigned batches and
    // patience-bound rejections both end their async lifecycle track.
    for (const auto& item : result.decision.assignments) {
      for (const Order& o : item.orders) {
        obs::EmitOrderLifecycle('e', "order", o.id);
      }
    }
    for (OrderId id : result.rejected) {
      obs::EmitOrderLifecycle('e', "order", id);
    }
  }
  return result;
}

StampedEvent WindowExecutor::Stamp(EngineEvent event) {
  StampedEvent stamped;
  // Timestamp 0 makes the event due at the very next window — the exact
  // visibility a synchronous Handle call has — and the monotone sequence
  // preserves the caller's submission order through the drain sort.
  stamped.timestamp = 0.0;
  stamped.sequence = next_sequence_.fetch_add(1, std::memory_order_relaxed);
  stamped.event = std::move(event);
  return stamped;
}

// The decorator path runs on the consumer thread, so backpressure cannot be
// waited out (nobody else drains) — pump the stages inline and retry.
void WindowExecutor::Handle(OrderPlaced event) {
  StampedEvent stamped = Stamp(EngineEvent{std::move(event)});
  for (;;) {
    StampedEvent copy = stamped;
    if (TrySubmit(std::move(copy)) != AbsorbResult::kBackpressure) return;
    PumpIntake();
  }
}

void WindowExecutor::Handle(VehicleStateUpdate event) {
  StampedEvent stamped = Stamp(EngineEvent{std::move(event)});
  for (;;) {
    StampedEvent copy = stamped;
    if (TrySubmit(std::move(copy)) != AbsorbResult::kBackpressure) return;
    PumpIntake();
  }
}

void WindowExecutor::Handle(OrderDelivered event) {
  StampedEvent stamped = Stamp(EngineEvent{std::move(event)});
  for (;;) {
    StampedEvent copy = stamped;
    if (TrySubmit(std::move(copy)) != AbsorbResult::kBackpressure) return;
    PumpIntake();
  }
}

void WindowExecutor::Handle(VehicleRetired event) {
  StampedEvent stamped = Stamp(EngineEvent{std::move(event)});
  for (;;) {
    StampedEvent copy = stamped;
    if (TrySubmit(std::move(copy)) != AbsorbResult::kBackpressure) return;
    PumpIntake();
  }
}

void WindowExecutor::set_observer(WindowObserver observer) {
  core_->set_observer(std::move(observer));
}

std::size_t WindowExecutor::pending_orders() const {
  const std::int64_t staged = staged_orders_.load(std::memory_order_relaxed);
  return core_->pending_orders() +
         static_cast<std::size_t>(staged > 0 ? staged : 0);
}

ThreadPool* WindowExecutor::thread_pool() const {
  return core_->thread_pool();
}

std::uint64_t WindowExecutor::absorbed() const {
  std::uint64_t total = 0;
  for (const auto& stage : stages_) total += stage->absorbed();
  return total;
}

std::uint64_t WindowExecutor::dropped_invalid() const {
  std::uint64_t total = 0;
  for (const auto& stage : stages_) total += stage->dropped_invalid();
  return total;
}

std::uint64_t WindowExecutor::blocked_pushes() const {
  std::uint64_t total = 0;
  for (const auto& stage : stages_) total += stage->blocked_pushes();
  return total;
}

}  // namespace fm
