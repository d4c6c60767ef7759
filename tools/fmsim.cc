// fmsim — command-line driver for the FoodMatch simulator.
//
// Runs one city/policy configuration end to end through the simulator
// (kinematics, metrics) and prints the metrics; optionally dumps CSV traces
// and a GeoJSON of the network. Stress scenarios stream through fmserve
// (--scenario) instead.
//
// Flags: `fmsim --help` prints the table that also defines the accepted
// set — the shared rows in run_spec.cc, fmsim's own in SimFlags().
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "foodmatch/foodmatch.h"
#include "run_spec.h"

namespace fm {
namespace {

// FNV-1a over everything deterministic in a SimulationResult — the same
// scheme (and the same field walk) as the engine-equivalence goldens in
// tests/dispatch_engine_test.cc, kept local because tools link only the
// library.
std::uint64_t HashBytes(std::uint64_t h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}
std::uint64_t HashU64(std::uint64_t h, std::uint64_t v) {
  return HashBytes(h, &v, sizeof(v));
}
std::uint64_t HashDouble(std::uint64_t h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return HashU64(h, bits);
}

std::uint64_t FingerprintResult(const SimulationResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const Metrics& m = r.metrics;
  h = HashU64(h, m.orders_total);
  h = HashU64(h, m.orders_delivered);
  h = HashU64(h, m.orders_rejected);
  h = HashU64(h, m.orders_pending_at_end);
  h = HashDouble(h, m.total_xdt_seconds);
  h = HashDouble(h, m.total_delivery_seconds);
  h = HashDouble(h, m.total_wait_seconds);
  for (double d : m.distance_by_load_m) h = HashDouble(h, d);
  h = HashU64(h, m.windows);
  h = HashU64(h, m.cost_evaluations);
  for (const SlotMetrics& s : m.per_slot) {
    h = HashU64(h, s.orders_placed);
    h = HashU64(h, s.orders_delivered);
    h = HashDouble(h, s.xdt_seconds);
    h = HashDouble(h, s.wait_seconds);
    h = HashDouble(h, s.distance_m);
    h = HashDouble(h, s.load_distance_m);
    h = HashU64(h, s.windows);
  }
  for (const OrderOutcome& o : r.outcomes) {
    h = HashU64(h, static_cast<std::uint64_t>(o.state));
    h = HashU64(h, o.id);
    h = HashU64(h, o.vehicle);
    h = HashDouble(h, o.delivered_at);
    h = HashDouble(h, o.xdt);
    h = HashU64(h, static_cast<std::uint64_t>(o.times_assigned));
  }
  return h;
}

std::vector<FlagDoc> SimFlags() {
  return {
      {"stream", "",
       "route all engine events through the\nstreaming intake (WindowExecutor "
       "over\nstaging rings) — bit-identical results,\nexercises the serving "
       "event path end to end"},
      {"verify-no-incremental", "",
       "run the day twice — incremental and\nfrom-scratch FOODGRAPH — and "
       "fail unless\nthe results are bit-identical"},
      {"verify-restore", "",
       "kill shard 0 at the mid-run window, restore\nit from snapshot + WAL, "
       "and fail unless the\nfinished run is bit-identical to an\n"
       "uninterrupted one (requires --wal-dir, no\n--stream)"},
      {"trace-prefix", "PATH",
       "write PATH.windows.csv / PATH.assignments.csv"},
      {"geojson", "PATH", "write the road network as GeoJSON"},
      {"per-slot", "", "print the per-timeslot breakdown"},
  };
}

int Main(int argc, char** argv) {
  const RunSpec spec = ParseRunSpec(
      argc, argv, "fmsim — FoodMatch delivery simulator", SimFlags());
  const FlagParser& flags = spec.flags;
  const Config& config = spec.config;
  // --stream interposes a WindowExecutor between the simulator and the
  // core: every event takes the staging-ring + drain-sort path a live
  // gateway uses (core/window_executor.h). The executor's decorator stamps
  // preserve submission order, so results stay bit-identical — this mode
  // exists to exercise (and, with --profile, time) the serving event path
  // inside the full simulator.
  const bool stream = flags.HasFlag("stream");
  RequireFlag(spec, "intake-capacity", "stream");
  RequireFlag(spec, "no-prestage", "stream");
  const bool verify_restore = flags.HasFlag("verify-restore");
  RequireFlag(spec, "verify-restore", "wal-dir");
  RejectFlagWith(spec, "verify-restore", "stream");
  // --verify-no-incremental reruns the whole day with a from-scratch
  // FOODGRAPH on a fresh synchronous core (same --shards) and insists on a
  // bit-identical SimulationResult; with --stream it also crosses the
  // streaming == batch line.
  const bool verify_no_incremental = flags.HasFlag("verify-no-incremental");
  // Both verify modes turn wall-clock measurement off (below), so a
  // --profile table would silently miss every decision phase.
  RejectFlagWith(spec, "profile", "verify-no-incremental");
  RejectFlagWith(spec, "profile", "verify-restore");

  const Workload workload = GenerateWorkload(spec.city, spec.horizon);
  // --profile: the warm-up here, the decision phases on the metrics, the
  // router and intake timings on the registry (declared before the core,
  // which it outlives).
  double warm_seconds = 0.0;
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics = spec.profile ? &registry : nullptr;
  const std::unique_ptr<DistanceOracle> oracle =
      WarmOracle(spec, workload.network, &warm_seconds);

  SimulationInput input;
  input.network = &workload.network;
  input.oracle = oracle.get();
  input.config = config;
  input.fleet = SubsampleFleet(workload.fleet, spec.fleet);
  input.orders = workload.orders;
  input.start_time = spec.horizon.start_time;
  input.end_time = spec.horizon.end_time;
  // Synthetic (zero) decision times keep window overflow accounting
  // identical across the two verification runs.
  input.measure_wall_clock = !verify_no_incremental && !verify_restore;
  const SimulationInput reference_input = input;

  CoreBundle serving =
      MakeCore(spec, workload.network, *oracle,
               {.measure_wall_clock = input.measure_wall_clock,
                .wal_dir = spec.wal_dir,
                .metrics = metrics});
  std::printf(
      "%s (1/%.0f): %zu nodes, %zu orders, %zu vehicles, policy=%s, "
      "shards=%d\n",
      spec.city.name.c_str(), spec.scale, workload.network.num_nodes(),
      workload.orders.size(), input.fleet.size(), spec.policy.c_str(),
      config.shards);

  if (verify_restore) {
    input.after_window = MidpointRestoreHook(spec, serving.sharded.get());
  }
  std::unique_ptr<WindowExecutor> executor;
  DispatchCore* core = serving.sharded.get();
  if (stream) {
    WindowExecutorOptions executor_options;
    executor_options.stages = config.shards;
    executor_options.queue_capacity =
        static_cast<std::size_t>(config.intake_queue_capacity);
    executor_options.prestage = config.intake_prestage;
    executor_options.oracle = oracle.get();
    executor_options.router =
        MakeRegionStageRouter(&serving.sharded->partitioner());
    executor_options.metrics = metrics;
    executor = std::make_unique<WindowExecutor>(core, executor_options);
    core = executor.get();
  }
  Simulator sim(std::move(input), core);
  TraceRecorder recorder;
  const std::string trace_prefix = flags.GetString("trace-prefix");
  if (!trace_prefix.empty()) {
    sim.set_window_observer(recorder.MakeObserver());
  }
  if (!spec.trace_out.empty()) obs::Tracer::Global().Enable();
  const SimulationResult result = sim.Run();

  std::printf("%s\n", result.metrics.Summary().c_str());

  // Stop tracing before any verify rerun so the trace covers exactly the
  // measured simulation.
  if (!spec.trace_out.empty() && !FinishTrace(spec.trace_out)) return 1;

  // The verify reference: the same day on a fresh core with no WAL.
  const auto rerun = [&](const RunSpec& reference) {
    CoreBundle fresh = MakeCore(reference, workload.network, *oracle,
                                {.measure_wall_clock = false});
    SimulationInput again = reference_input;
    again.config = reference.config;
    return FingerprintResult(
        Simulator(std::move(again), fresh.sharded.get()).Run());
  };
  const std::uint64_t fingerprint = FingerprintResult(result);
  if (verify_restore &&
      !VerifyFingerprint("killed+restored", "uninterrupted", fingerprint,
                         rerun(spec))) {
    return 1;
  }
  if (verify_no_incremental) {
    RunSpec scratch = spec;
    scratch.config.incremental_graph = false;
    if (!VerifyFingerprint("incremental", "from-scratch", fingerprint,
                           rerun(scratch))) {
      return 1;
    }
  }

  if (spec.profile) {
    const Metrics& m = result.metrics;
    PrintProfile({{"oracle.warm", warm_seconds},
                  {"batching", m.phase_batching_seconds},
                  {"graph.build", m.phase_graph_seconds},
                  {"matching.km", m.phase_matching_seconds},
                  {"rebuild.plans", m.phase_rebuild_seconds}},
                 registry, config.threads);
  }

  if (flags.HasFlag("per-slot")) {
    std::printf("\nslot  placed  delivered  XDT(h)  WT(h)  O/Km\n");
    for (int s = 0; s < kSlotsPerDay; ++s) {
      const SlotMetrics& m = result.metrics.per_slot[s];
      if (m.orders_placed == 0 && m.distance_m == 0) continue;
      std::printf("%4d  %6llu  %9llu  %6.2f  %5.2f  %5.3f\n", s,
                  static_cast<unsigned long long>(m.orders_placed),
                  static_cast<unsigned long long>(m.orders_delivered),
                  m.xdt_seconds / 3600.0, m.wait_seconds / 3600.0,
                  result.metrics.SlotOrdersPerKm(s));
    }
  }

  if (!trace_prefix.empty()) {
    recorder.WriteWindowsCsv(trace_prefix + ".windows.csv");
    recorder.WriteAssignmentsCsv(trace_prefix + ".assignments.csv");
    std::printf("traces: %s.windows.csv, %s.assignments.csv\n",
                trace_prefix.c_str(), trace_prefix.c_str());
  }
  const std::string geojson = flags.GetString("geojson");
  if (!geojson.empty()) {
    WriteGeoJsonFile(geojson, NetworkToGeoJson(workload.network));
    std::printf("network geojson: %s\n", geojson.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace fm

int main(int argc, char** argv) { return fm::Main(argc, argv); }
