// Open-loop city-day benchmark: paces the paper's evaluation driver
// (sim/simulator.h) on a compressed wall clock and times every layer from
// outside the library.
//
// Pacing. A workload's day [start, end + drain) is compressed by S so that
// it spans the run's `seconds`: S = (end + drain - start) / seconds. Window
// k, which closes at simulated time now_k, falls due at
// epoch + (now_k - start) / S; it starts at its due time, or as soon as
// window k-1 has finished if that is later. The Simulator feeds every
// order placed up to now_k regardless of how far the stack has fallen
// behind, so arrivals are open loop and a slow window delays the next ones.
//
// Timing. Nothing under src/ is instrumented. A TimingCore decorator sits
// between the Simulator and the dispatch stack and times every Handle call;
// SimulationInput::after_window marks the end of each window and is where
// the pacer sleeps; the public WindowResult fields give the policy's own
// decision, batching, graph and matching clocks.
#ifndef FOODMATCH_PERFBENCH_CITYBENCH_H_
#define FOODMATCH_PERFBENCH_CITYBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dispatch_engine.h"
#include "core/window_executor.h"
#include "gen/workload.h"
#include "graph/distance_oracle.h"
#include "obs/metrics_registry.h"
#include "serving/region_partitioner.h"
#include "serving/sharded_dispatch_engine.h"
#include "sim/simulator.h"

namespace fm::perfbench {

using Clock = std::chrono::steady_clock;

// One benchmark workload: a City A day (gen/profiles.h) and the dispatch
// stack replaying it.
struct WorkloadSpec {
  std::string name;
  double scale = 20.0;             // profile scale-down factor
  Seconds delta = 60.0;            // accumulation window ∆
  Seconds start_time = 10.0 * 3600.0;
  Seconds end_time = 15.0 * 3600.0;
  Seconds drain_time = 7200.0;     // SimulationInput::drain_time
  int shards = 1;                  // ShardedDispatchEngine K
  // WindowExecutor front plus per-shard WAL and snapshots.
  bool durable_stream = false;

  // Simulated seconds the pacer compresses into one run.
  Seconds span() const { return end_time + drain_time - start_time; }
};

// The benchmark's workloads ("peak", "sharded-durable") and the
// test's tiny cities ("tiny", "tiny-sharded"). Empty for unknown names.
std::optional<WorkloadSpec> FindWorkload(const std::string& name);

// Wall-clock seconds of one set-up, by part.
struct SetupTimes {
  double workload_s = 0.0;     // city, network, fleet and order stream
  double oracle_warm_s = 0.0;  // hub-label warm-up over the day's slots
  double engine_s = 0.0;       // partitioner, shard engines, executor
  double total() const { return workload_s + oracle_warm_s + engine_s; }
};

// The immutable inputs of one run: the generated day and its warmed oracle.
struct World {
  WorkloadSpec spec;
  Workload workload;
  std::unique_ptr<DistanceOracle> oracle;
};

// Generates the day for `seed` (WorkloadOptions::day) and warms the oracle
// over every slot the day touches on `lanes` lanes. Adds its times to
// `times`.
std::unique_ptr<World> BuildWorld(const WorkloadSpec& spec, std::uint64_t seed,
                                  int lanes, SetupTimes* times);

struct StackOptions {
  int lanes = 2;                              // Config::threads
  // WAL + snapshot directory; only used by durable_stream workloads.
  std::string wal_dir;
  // Registry for the traced run (serving, WAL, oracle, EdgeCache and
  // executor instruments). Must outlive the stack.
  obs::MetricsRegistry* registry = nullptr;
};

// The dispatch stack under test: a ShardedDispatchEngine with the
// workload's K (K = 1 is bit-identical to the single engine), fronted by a
// WindowExecutor on durable_stream workloads.
class Stack {
 public:
  Stack(const World& world, const StackOptions& options);
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // What the Simulator drives (the executor, or the sharded engine).
  DispatchCore* front() const;
  const ShardedDispatchEngine& sharded() const { return *sharded_; }
  std::uint64_t wal_records() const;

 private:
  std::unique_ptr<GridRegionPartitioner> partitioner_;
  std::unique_ptr<ShardedDispatchEngine> sharded_;
  std::unique_ptr<WindowExecutor> executor_;
};

// The Simulator input for `world` (horizon, fleet, orders, config).
SimulationInput MakeInput(const World& world, int lanes,
                          bool measure_wall_clock);

// Timestamps and decision fields of one window, as seen from outside.
struct WindowRecord {
  Seconds now = 0.0;
  Clock::time_point start;          // released by the pacer
  Clock::time_point first_publish;  // first OrderPlaced / VehicleStateUpdate
  Clock::time_point close_call;     // Handle(WindowClosed) called
  Clock::time_point close_return;   // ... returned
  Clock::time_point after;          // after_window reached
  bool published = false;
  bool closed = false;
  bool finished = false;
  double delivered_s = 0.0;  // OrderDelivered handling (during the advance)
  double events_s = 0.0;     // every non-window Handle call
  double decide_s = 0.0;     // WindowResult::decision_seconds
  double batching_s = 0.0;
  double graph_s = 0.0;
  double matching_s = 0.0;
};

// DispatchCore decorator that times every Handle call and keeps a copy of
// each WindowResult. It forwards every override unchanged, so it cannot
// change a decision (perfbench_test checks this). It wraps the core, not
// the policy: the sharded engine finds its EdgeCache instruments by
// dynamic_cast on the policy.
class TimingCore final : public DispatchCore {
 public:
  TimingCore(DispatchCore* inner, std::size_t num_orders);

  // Opens the next window's record at `start`; the pacer calls it before
  // each window (and once more after the last, for the final drain).
  void BeginWindow(Clock::time_point start);
  // Closes the open window's record at `after`.
  void EndWindow(Clock::time_point after);

  void Handle(OrderPlaced event) override;
  void Handle(VehicleStateUpdate event) override;
  void Handle(OrderDelivered event) override;
  void Handle(VehicleRetired event) override;
  WindowResult Handle(const WindowClosed& event) override;
  void set_observer(WindowObserver observer) override;
  std::size_t pending_orders() const override;
  ThreadPool* thread_pool() const override;

  // Finished windows only (the trailing drain record is dropped).
  std::vector<WindowRecord> windows() const;
  const std::vector<WindowResult>& results() const { return results_; }
  // Per order id: index of the window that first assigned it, or -1.
  const std::vector<int>& first_assigned() const { return first_assigned_; }

 private:
  WindowRecord& open();

  DispatchCore* inner_;
  std::vector<WindowRecord> records_;
  std::vector<WindowResult> results_;
  std::vector<int> first_assigned_;
};

// Everything one paced day produced.
struct PacedRun {
  double compression = 0.0;  // S
  double period_s = 0.0;     // ∆ / S
  std::vector<WindowRecord> windows;
  std::vector<double> lag_ms;          // per window: due -> close return
  std::vector<double> assign_ms;       // per assigned order
  std::vector<double> pace_slip_ms;    // per pacer sleep: wake - due
  int backlog_windows_max = 0;
  SimulationResult sim;
  std::uint64_t window_fingerprint = 0;
  std::uint64_t outcome_fingerprint = 0;
  std::uint64_t oracle_queries = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t migrations = 0;
  std::uint64_t cost_evaluations = 0;
  std::uint64_t assigned_orders = 0;
  std::uint64_t reshuffled_vehicles = 0;
  std::uint64_t reinstatements = 0;
  std::uint64_t rejected = 0;
};

// Replays `world`'s day through `stack`, paced to last `seconds`.
PacedRun RunPaced(const World& world, const Stack& stack, double seconds,
                  int lanes);

// The output check's reference: the same day replayed serially and
// unpaced (threads = 1, measure_wall_clock = false) — through one plain
// DispatchEngine when K = 1, through an undecorated K-shard engine with
// no executor and no WAL otherwise. Returns {window, outcome} fingerprints.
struct Fingerprints {
  std::uint64_t windows = 0;
  std::uint64_t outcomes = 0;
};
Fingerprints RunReference(const World& world);

// FNV-1a over each order's final outcome (state, vehicle, time, XDT,
// assignment count).
std::uint64_t FingerprintOutcomes(const std::vector<OrderOutcome>& outcomes);

// Per-layer self times of one paced day, in seconds, summed over windows.
// The spans tile each window: [start, first_publish) is the driver's
// vehicle advance, [first_publish, close_call) its event publication,
// [close_call, close_return) the core, [close_return, after) apply +
// rebuild. Core events are subtracted from the driver spans they occur in;
// the policy phases (from the decision fields) from the core span.
struct LayerTimes {
  double busy = 0.0;         // Σ window start -> after_window
  std::map<std::string, double> self;
  double residual = 0.0;     // busy - Σ self
};
LayerTimes AttributeLayers(const PacedRun& run);

// Writes the run's window spans as Chrome trace JSON.
bool WriteChromeTrace(const PacedRun& run, const std::string& path);

// q-quantile (0..1) by linear interpolation; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

}  // namespace fm::perfbench

#endif  // FOODMATCH_PERFBENCH_CITYBENCH_H_
