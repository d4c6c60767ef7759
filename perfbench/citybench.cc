#include "citybench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/checksum.h"
#include "common/thread_pool.h"
#include "common/time.h"
#include "core/fingerprint.h"
#include "core/policy_registry.h"
#include "gen/profiles.h"
#include "serving/streaming_replay.h"

namespace fm::perfbench {
namespace {

double Secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

Config MakeConfig(const WorkloadSpec& spec, int lanes) {
  Config config;
  config.accumulation_window = spec.delta;
  config.threads = lanes;
  config.shards = spec.shards;
  config.Validate();
  return config;
}

}  // namespace

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "peak") {
    spec.scale = 20.0;
  } else if (name == "sharded-durable") {
    spec.scale = 15.0;
    spec.shards = 4;
    spec.durable_stream = true;
  } else if (name == "tiny" || name == "tiny-sharded") {
    spec.scale = 400.0;
    spec.start_time = 11.0 * 3600.0;
    spec.end_time = 13.0 * 3600.0;
    spec.drain_time = 3600.0;
    if (name == "tiny-sharded") {
      spec.shards = 2;
      spec.durable_stream = true;
    }
  } else {
    return std::nullopt;
  }
  return spec;
}

std::unique_ptr<World> BuildWorld(const WorkloadSpec& spec, std::uint64_t seed,
                                  int lanes, SetupTimes* times) {
  auto world = std::make_unique<World>();
  world->spec = spec;

  const auto t0 = Clock::now();
  const CityProfile profile = CityAProfile(spec.scale);
  WorkloadOptions options;
  options.start_time = spec.start_time;
  options.end_time = spec.end_time;
  options.day = seed;
  world->workload = GenerateWorkload(profile, options);
  const auto t1 = Clock::now();

  // Every slot the replay can query: the intake horizon plus the drain.
  world->oracle = std::make_unique<DistanceOracle>(&world->workload.network,
                                                   OracleBackend::kHubLabels);
  {
    ThreadPool pool(ThreadPool::ResolveThreadCount(lanes));
    world->oracle->WarmSlots(
        HourSlot(spec.start_time),
        std::min(kSlotsPerDay - 1, HourSlot(spec.end_time + spec.drain_time)),
        &pool);
  }
  const auto t2 = Clock::now();

  times->workload_s += Secs(t1 - t0);
  times->oracle_warm_s += Secs(t2 - t1);
  return world;
}

Stack::Stack(const World& world, const StackOptions& options) {
  const Config config = MakeConfig(world.spec, options.lanes);
  partitioner_ = std::make_unique<GridRegionPartitioner>(
      &world.workload.network, config.shards);
  ShardedEngineOptions sharded_options;
  sharded_options.metrics = options.registry;
  if (world.spec.durable_stream) {
    FM_CHECK_MSG(!options.wal_dir.empty(), "durable workload needs a WAL dir");
    sharded_options.durability.dir = options.wal_dir;
    sharded_options.durability.snapshot_every_windows =
        config.snapshot_every_windows;
  }
  sharded_ = std::make_unique<ShardedDispatchEngine>(
      partitioner_.get(), "foodmatch", world.oracle.get(), config,
      PolicyOptions{}, sharded_options);
  if (world.spec.durable_stream) {
    WindowExecutorOptions executor_options;
    executor_options.stages = config.shards;
    executor_options.queue_capacity =
        static_cast<std::size_t>(config.intake_queue_capacity);
    executor_options.prestage = config.intake_prestage;
    executor_options.oracle = world.oracle.get();
    executor_options.router = MakeRegionStageRouter(partitioner_.get());
    executor_options.metrics = options.registry;
    executor_ =
        std::make_unique<WindowExecutor>(sharded_.get(), executor_options);
  }
}

DispatchCore* Stack::front() const {
  return executor_ != nullptr ? static_cast<DispatchCore*>(executor_.get())
                              : sharded_.get();
}

std::uint64_t Stack::wal_records() const {
  std::uint64_t total = 0;
  for (int s = 0; s < sharded_->num_shards(); ++s) {
    total += sharded_->durable_records(s);
  }
  return total;
}

SimulationInput MakeInput(const World& world, int lanes,
                          bool measure_wall_clock) {
  SimulationInput input;
  input.network = &world.workload.network;
  input.oracle = world.oracle.get();
  input.config = MakeConfig(world.spec, lanes);
  input.fleet = world.workload.fleet;
  input.orders = world.workload.orders;
  input.start_time = world.spec.start_time;
  input.end_time = world.spec.end_time;
  input.drain_time = world.spec.drain_time;
  input.measure_wall_clock = measure_wall_clock;
  return input;
}

// ---- TimingCore ----

TimingCore::TimingCore(DispatchCore* inner, std::size_t num_orders)
    : inner_(inner), first_assigned_(num_orders, -1) {
  FM_CHECK(inner_ != nullptr);
}

WindowRecord& TimingCore::open() {
  FM_CHECK_MSG(!records_.empty() && !records_.back().finished,
               "event outside a window: BeginWindow was not called");
  return records_.back();
}

void TimingCore::BeginWindow(Clock::time_point start) {
  FM_CHECK(records_.empty() || records_.back().finished);
  records_.emplace_back();
  records_.back().start = start;
}

void TimingCore::EndWindow(Clock::time_point after) {
  WindowRecord& record = open();
  FM_CHECK(record.closed);
  record.after = after;
  record.finished = true;
}

void TimingCore::Handle(OrderPlaced event) {
  const auto t0 = Clock::now();
  inner_->Handle(std::move(event));
  const auto t1 = Clock::now();
  WindowRecord& record = open();
  if (!record.published) {
    record.published = true;
    record.first_publish = t0;
  }
  record.events_s += Secs(t1 - t0);
}

void TimingCore::Handle(VehicleStateUpdate event) {
  const auto t0 = Clock::now();
  inner_->Handle(std::move(event));
  const auto t1 = Clock::now();
  WindowRecord& record = open();
  if (!record.published) {
    record.published = true;
    record.first_publish = t0;
  }
  record.events_s += Secs(t1 - t0);
}

void TimingCore::Handle(OrderDelivered event) {
  const auto t0 = Clock::now();
  inner_->Handle(event);
  const double d = Secs(Clock::now() - t0);
  WindowRecord& record = open();
  record.delivered_s += d;
  record.events_s += d;
}

void TimingCore::Handle(VehicleRetired event) {
  const auto t0 = Clock::now();
  inner_->Handle(event);
  open().events_s += Secs(Clock::now() - t0);
}

WindowResult TimingCore::Handle(const WindowClosed& event) {
  const auto t0 = Clock::now();
  WindowResult result = inner_->Handle(event);
  const auto t1 = Clock::now();
  WindowRecord& record = open();
  record.now = event.now;
  record.close_call = t0;
  record.close_return = t1;
  record.closed = true;
  record.decide_s = result.decision_seconds;
  record.batching_s = result.decision.batching_seconds;
  record.graph_s = result.decision.graph_seconds;
  record.matching_s = result.decision.matching_seconds;
  const int window = static_cast<int>(results_.size());
  for (const AssignmentDecision::Item& item : result.decision.assignments) {
    for (const Order& order : item.orders) {
      FM_CHECK_LT(order.id, first_assigned_.size());
      if (first_assigned_[order.id] < 0) first_assigned_[order.id] = window;
    }
  }
  results_.push_back(result);
  return result;
}

void TimingCore::set_observer(WindowObserver observer) {
  inner_->set_observer(std::move(observer));
}

std::size_t TimingCore::pending_orders() const {
  return inner_->pending_orders();
}

ThreadPool* TimingCore::thread_pool() const { return inner_->thread_pool(); }

std::vector<WindowRecord> TimingCore::windows() const {
  std::vector<WindowRecord> finished;
  for (const WindowRecord& record : records_) {
    if (record.finished) finished.push_back(record);
  }
  FM_CHECK_EQ(finished.size(), results_.size());
  return finished;
}

// ---- Runs ----

std::uint64_t FingerprintOutcomes(const std::vector<OrderOutcome>& outcomes) {
  std::uint64_t h = kFnv1aOffsetBasis;
  const auto mix = [&h](const auto& value) {
    h = Fnv1a(&value, sizeof(value), h);
  };
  for (const OrderOutcome& o : outcomes) {
    mix(o.id);
    mix(static_cast<int>(o.state));
    mix(o.vehicle);
    mix(o.delivered_at);
    mix(o.xdt);
    mix(o.times_assigned);
  }
  return h;
}

PacedRun RunPaced(const World& world, const Stack& stack, double seconds,
                  int lanes) {
  FM_CHECK_GT(seconds, 0.0);
  const WorkloadSpec& spec = world.spec;
  PacedRun run;
  run.compression = spec.span() / seconds;
  run.period_s = spec.delta / run.compression;
  const Seconds hard_end = spec.end_time + spec.drain_time;

  TimingCore timing(stack.front(), world.workload.orders.size());
  Clock::time_point epoch;
  const auto due_of = [&](Seconds sim_time) {
    return epoch + ToDuration((sim_time - spec.start_time) / run.compression);
  };

  SimulationInput input = MakeInput(world, lanes, /*measure_wall_clock=*/true);
  // The pacer: close the finished window's record, sleep until the next
  // window is due (if the stack is ahead), then release it.
  input.after_window = [&](Seconds now, std::uint64_t index) {
    timing.EndWindow(Clock::now());
    const auto due = due_of(std::min(now + spec.delta, hard_end));
    if (Clock::now() < due) {
      std::this_thread::sleep_until(due);
      run.pace_slip_ms.push_back(1e3 * Secs(Clock::now() - due));
    }
    const auto start = Clock::now();
    // Windows due by `start` that have not started, this one excluded.
    const double due_windows =
        std::floor(Secs(start - epoch) * run.compression / spec.delta);
    run.backlog_windows_max =
        std::max(run.backlog_windows_max,
                 static_cast<int>(due_windows) - static_cast<int>(index + 2));
    timing.BeginWindow(start);
  };

  Simulator sim(std::move(input), &timing);
  const std::uint64_t queries_before = world.oracle->query_count();
  // Window 0 is due now: the day began one period ago.
  const auto t0 = Clock::now();
  epoch = t0 - ToDuration(run.period_s);
  timing.BeginWindow(t0);
  run.sim = sim.Run();
  run.oracle_queries = world.oracle->query_count() - queries_before;

  run.windows = timing.windows();
  for (const WindowRecord& w : run.windows) {
    run.lag_ms.push_back(1e3 * Secs(w.close_return - due_of(w.now)));
  }
  const std::vector<int>& first = timing.first_assigned();
  for (const Order& order : world.workload.orders) {
    const int k = first[order.id];
    if (k < 0) continue;
    run.assign_ms.push_back(
        1e3 * Secs(run.windows[k].close_return - due_of(order.placed_at)));
  }

  for (const WindowResult& r : timing.results()) {
    run.cost_evaluations += r.decision.cost_evaluations;
    for (const AssignmentDecision::Item& item : r.decision.assignments) {
      run.assigned_orders += item.orders.size();
    }
    run.reshuffled_vehicles += r.reshuffled_vehicles.size();
    run.reinstatements += r.reinstatements.size();
    run.rejected += r.rejected.size();
  }
  run.window_fingerprint = FingerprintWindowResults(timing.results());
  run.outcome_fingerprint = FingerprintOutcomes(run.sim.outcomes);
  run.wal_records = stack.wal_records();
  run.migrations = stack.sharded().migrations();
  return run;
}

Fingerprints RunReference(const World& world) {
  SimulationInput input = MakeInput(world, /*lanes=*/1,
                                    /*measure_wall_clock=*/false);
  const Config config = input.config;
  std::unique_ptr<AssignmentPolicy> policy;
  std::unique_ptr<DispatchEngine> engine;
  std::unique_ptr<GridRegionPartitioner> partitioner;
  std::unique_ptr<ShardedDispatchEngine> sharded;
  DispatchCore* core = nullptr;
  if (world.spec.shards == 1) {
    policy = PolicyRegistry::Global().Create("foodmatch", world.oracle.get(),
                                             config);
    engine = std::make_unique<DispatchEngine>(
        policy.get(), config, DispatchEngineOptions{.measure_wall_clock = false});
    core = engine.get();
  } else {
    partitioner = std::make_unique<GridRegionPartitioner>(
        &world.workload.network, config.shards);
    ShardedEngineOptions options;
    options.engine.measure_wall_clock = false;
    sharded = std::make_unique<ShardedDispatchEngine>(
        partitioner.get(), "foodmatch", world.oracle.get(), config,
        PolicyOptions{}, options);
    core = sharded.get();
  }
  TimingCore recorder(core, world.workload.orders.size());
  input.after_window = [&recorder](Seconds, std::uint64_t) {
    recorder.EndWindow(Clock::now());
    recorder.BeginWindow(Clock::now());
  };
  Simulator sim(std::move(input), &recorder);
  recorder.BeginWindow(Clock::now());
  const SimulationResult result = sim.Run();
  return {FingerprintWindowResults(recorder.results()),
          FingerprintOutcomes(result.outcomes)};
}

// ---- Attribution and trace ----

LayerTimes AttributeLayers(const PacedRun& run) {
  LayerTimes layers;
  double advance = 0.0, publish = 0.0, events = 0.0, engine = 0.0;
  double batching = 0.0, graph = 0.0, km = 0.0, policy_other = 0.0;
  for (const WindowRecord& w : run.windows) {
    const Clock::time_point first =
        w.published ? w.first_publish : w.close_call;
    layers.busy += Secs(w.after - w.start);
    advance += Secs(first - w.start) - w.delivered_s;
    publish += Secs(w.close_call - first) - (w.events_s - w.delivered_s);
    events += w.events_s;
    engine += Secs(w.close_return - w.close_call) - w.decide_s;
    // Sharded decisions report the makespan as decide_s but the phases as
    // sums over shards; scale the phases into the makespan.
    const double phases = w.batching_s + w.graph_s + w.matching_s;
    const double f = phases > w.decide_s && phases > 0 ? w.decide_s / phases
                                                       : 1.0;
    batching += f * w.batching_s;
    graph += f * w.graph_s;
    km += f * w.matching_s;
    policy_other += w.decide_s - f * phases;
  }
  layers.self = {
      {"sim.advance", advance},
      {"sim.publish", publish},
      {"core.events", events},
      {"core.engine_self", engine},
      {"self.policy.batching", batching},
      {"self.policy.graph", graph},
      {"self.matching.km", km},
      {"self.policy.other", policy_other},
      // The Simulator's own clock around the plan rebuilds.
      {"self.routing.rebuild", run.sim.metrics.phase_rebuild_seconds},
  };
  double attributed = 0.0;
  for (const auto& [name, seconds] : layers.self) attributed += seconds;
  layers.residual = layers.busy - attributed;
  return layers;
}

bool WriteChromeTrace(const PacedRun& run, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      run.windows.empty() ? Clock::time_point{} : run.windows.front().start;
  const auto us = [&](Clock::time_point t) { return 1e6 * Secs(t - origin); };
  bool first_event = true;
  const auto span = [&](const char* name, double ts, double dur, int id,
                        const std::string& args) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"window\":%d%s}}",
                 first_event ? "" : ",", name, ts, dur, id, args.c_str());
    first_event = false;
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  char buf[256];
  for (std::size_t k = 0; k < run.windows.size(); ++k) {
    const WindowRecord& w = run.windows[k];
    const int id = static_cast<int>(k);
    const Clock::time_point first =
        w.published ? w.first_publish : w.close_call;
    std::snprintf(buf, sizeof(buf), ",\"now\":%.1f,\"lag_ms\":%.3f", w.now,
                  run.lag_ms[k]);
    span("window", us(w.start), us(w.after) - us(w.start), id, buf);
    span("sim.advance", us(w.start), us(first) - us(w.start), id, "");
    if (w.delivered_s > 0) {
      span("core.events", us(w.start), 1e6 * w.delivered_s, id, "");
    }
    span("sim.publish", us(first), us(w.close_call) - us(first), id, "");
    span("core.events", us(first), 1e6 * (w.events_s - w.delivered_s), id,
         "");
    std::snprintf(buf, sizeof(buf),
                  ",\"decide_ms\":%.3f,\"batching_ms\":%.3f,"
                  "\"graph_ms\":%.3f,\"km_ms\":%.3f",
                  1e3 * w.decide_s, 1e3 * w.batching_s, 1e3 * w.graph_s,
                  1e3 * w.matching_s);
    span("core.window", us(w.close_call),
         us(w.close_return) - us(w.close_call), id, buf);
    span("routing.rebuild", us(w.close_return),
         us(w.after) - us(w.close_return), id, "");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

}  // namespace fm::perfbench
