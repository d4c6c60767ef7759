// bench_observability — hard gates for the unified observability layer.
//
// Gate 1 (decision neutrality): the kitchen-sink stress scenario is
// streamed through the serving stack with observability fully on (a
// MetricsRegistry wired into the window executor and the sharded core,
// plus the global Tracer recording spans and order-lifecycle markers) and
// fully off, for every threads × shards in {1, 4}². The WindowResult
// fingerprints must be bit-identical: instruments and spans read the wall
// clock and counts, they never feed back into simulated time or
// decisions. Any divergence aborts, so CI treats an observability
// side-effect as a build break.
//
// Gate 2 (overhead): the same scenario at sweep scale, min-of-5 wall
// clocks, observability on vs off, the side that runs first alternating
// from rep to rep so neither side always meets a colder or a warmer
// machine. The on run may cost at most 3% over
// the off run (plus a 10 ms floor so a near-zero baseline cannot fail the
// ratio on scheduler noise) — instrumentation this repo ships by default
// must stay effectively free.
//
// The measurements go to BENCH_obs.json (--out=PATH, schema
// foodmatch-obs-v1), the ninth committed anchor CI regenerates and
// uploads per commit.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/support.h"
#include "common/flags.h"
#include "common/strings.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace fm::bench {
namespace {

constexpr const char* kScenario = "kitchen-sink";
// Identity runs shrink the city hard (scale divides the workload); the
// overhead runs use the stress-sweep size so the baseline wall clock is
// long enough to measure a 3% delta against.
constexpr double kGateScale = 160.0;
constexpr double kOverheadScale = 80.0;
constexpr Seconds kStart = 11.0 * 3600.0;
constexpr Seconds kEnd = 13.0 * 3600.0;

// Every run goes through the sharded core, K=1 included (a gated
// pass-through), so the obs-on runs wire the same instrument set at every K.
struct ObsCore {
  std::unique_ptr<GridRegionPartitioner> partitioner;
  std::unique_ptr<ShardedDispatchEngine> sharded;
};

ObsCore MakeCore(const RoadNetwork& network, const DistanceOracle& oracle,
                 const Config& config, obs::MetricsRegistry* metrics) {
  ObsCore bundle;
  bundle.partitioner =
      std::make_unique<GridRegionPartitioner>(&network, config.shards);
  ShardedEngineOptions options;
  options.engine.measure_wall_clock = false;
  options.metrics = metrics;
  bundle.sharded = std::make_unique<ShardedDispatchEngine>(
      bundle.partitioner.get(), "foodmatch", &oracle, config,
      PolicyOptions{}, options);
  return bundle;
}

struct Instance {
  StressWorkload stress;
  std::unique_ptr<DistanceOracle> oracle;
};

Instance MakeInstance(double scale) {
  Instance inst;
  StressGenOptions options;
  options.seed = 0;
  options.start_time = kStart;
  options.end_time = kEnd;
  inst.stress = GenerateStressWorkload(CityAProfile(scale),
                                       StressScenario(kScenario), options);
  inst.oracle = std::make_unique<DistanceOracle>(&inst.stress.base.network,
                                                 OracleBackend::kHubLabels);
  const int first = HourSlot(kStart);
  const int last = std::min(kSlotsPerDay - 1, HourSlot(kEnd) + 2);
  ThreadPool warm_pool(ThreadPool::ResolveThreadCount(0));
  inst.oracle->WarmSlots(first, last, &warm_pool);
  return inst;
}

struct RunOutcome {
  std::uint64_t fingerprint = 0;
  double wall_seconds = 0.0;
  std::size_t instruments = 0;     // obs on only
  std::size_t trace_events = 0;    // obs on only
  std::uint64_t trace_dropped = 0; // obs on only
};

// One streamed replay of the instance; `observe` turns the full stack on
// (fresh registry + global tracer), off runs pass null/disabled.
RunOutcome RunOnce(const Instance& inst, int threads, int shards,
                   bool observe) {
  Config config;
  config.accumulation_window = inst.stress.base.profile.default_delta;
  config.threads = threads;
  config.shards = shards;
  config.Validate();

  // Declared before the core bundle: the executor and the sharded engine
  // freeze their callback instruments from their destructors, so the
  // registry must outlive them.
  std::unique_ptr<obs::MetricsRegistry> registry;
  if (observe) {
    registry = std::make_unique<obs::MetricsRegistry>();
    obs::Tracer::Global().Enable();
  }
  ObsCore bundle = MakeCore(inst.stress.base.network, *inst.oracle, config,
                            registry.get());
  StreamReplayStats stats;
  StreamReplayOptions options;
  options.producers = 2;
  options.stages = config.shards;
  options.oracle = inst.oracle.get();
  options.metrics = registry.get();
  options.stats = &stats;
  options.router = MakeRegionStageRouter(bundle.partitioner.get());
  const std::vector<WindowResult> results =
      StreamReplay(*bundle.sharded, inst.stress.events, kStart, kEnd,
                   config.accumulation_window, options);

  RunOutcome out;
  out.fingerprint = FingerprintWindowResults(results);
  out.wall_seconds = stats.wall_seconds;
  if (observe) {
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.Disable();
    out.trace_events = tracer.SortedEvents().size();
    out.trace_dropped = tracer.dropped();
    const obs::MetricsSnapshot snapshot = registry->Snapshot();
    out.instruments = snapshot.instruments.size();
    // Both expositions must render; an empty or truncated document here
    // means a registry regression, not a workload change.
    FM_CHECK_MSG(!snapshot.ToJson().empty() &&
                     !snapshot.ToPrometheusText().empty(),
                 "bench_observability: empty metrics exposition");
  }
  return out;
}

struct IdentityEntry {
  int threads = 1;
  int shards = 1;
  std::uint64_t fingerprint = 0;
  std::size_t instruments = 0;
  std::size_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
};

int Main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    return 2;
  }
  const std::string out_path = flags.GetString("out", "BENCH_obs.json");
  PrintBanner("Observability — decision-neutrality + overhead gates",
              "metrics + tracing must change nothing and cost <= 3%");

  // ---- Gate 1: bit-identity across threads × shards, obs on vs off ----
  std::printf("Gate 1 (decision neutrality, %s, City A / %.0f):\n",
              kScenario, kGateScale);
  const Instance gate_inst = MakeInstance(kGateScale);
  std::vector<IdentityEntry> identity;
  for (int shards : {1, 4}) {
    for (int threads : {1, 4}) {
      const RunOutcome off = RunOnce(gate_inst, threads, shards,
                                     /*observe=*/false);
      const RunOutcome on = RunOnce(gate_inst, threads, shards,
                                    /*observe=*/true);
      FM_CHECK_MSG(
          on.fingerprint == off.fingerprint,
          "bench_observability: GATE FAILED — observability changed the "
          "decisions at shards=" + std::to_string(shards) +
              " threads=" + std::to_string(threads));
      FM_CHECK_MSG(on.instruments > 0 && on.trace_events > 0,
                   "bench_observability: obs-on run recorded nothing");
      IdentityEntry e;
      e.threads = threads;
      e.shards = shards;
      e.fingerprint = on.fingerprint;
      e.instruments = on.instruments;
      e.trace_events = on.trace_events;
      e.trace_dropped = on.trace_dropped;
      identity.push_back(e);
      std::printf(
          "  K=%d threads=%d ok (%016llx, %zu instruments, %zu trace "
          "events)\n",
          shards, threads, static_cast<unsigned long long>(on.fingerprint),
          on.instruments, on.trace_events);
    }
  }

  // ---- Gate 2: overhead, min-of-5, obs on vs off, alternating order ----
  constexpr int kOverheadReps = 5;
  std::printf("\nGate 2 (overhead, %s, City A / %.0f, shards=4, "
              "threads=4, min of %d, first side alternating):\n",
              kScenario, kOverheadScale, kOverheadReps);
  const Instance sweep_inst = MakeInstance(kOverheadScale);
  double off_min = 0.0;
  double on_min = 0.0;
  std::uint64_t off_fp = 0;
  std::uint64_t on_fp = 0;
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    const bool off_first = rep % 2 == 0;
    RunOutcome off;
    RunOutcome on;
    if (off_first) off = RunOnce(sweep_inst, 4, 4, /*observe=*/false);
    on = RunOnce(sweep_inst, 4, 4, /*observe=*/true);
    if (!off_first) off = RunOnce(sweep_inst, 4, 4, /*observe=*/false);
    std::printf("  rep %d (%s first): off %.3fs  on %.3fs\n", rep + 1,
                off_first ? "off" : "on", off.wall_seconds, on.wall_seconds);
    off_min = rep == 0 ? off.wall_seconds
                       : std::min(off_min, off.wall_seconds);
    on_min = rep == 0 ? on.wall_seconds : std::min(on_min, on.wall_seconds);
    off_fp = off.fingerprint;
    on_fp = on.fingerprint;
  }
  FM_CHECK_MSG(on_fp == off_fp,
               "bench_observability: GATE FAILED — overhead-scale run is "
               "not decision-neutral");
  const double overhead_pct =
      off_min > 0.0 ? (on_min - off_min) / off_min * 100.0 : 0.0;
  std::printf("  min: off %.3fs  on %.3fs  overhead %+.2f%%\n", off_min,
              on_min, overhead_pct);
  FM_CHECK_MSG(on_min <= off_min * 1.03 + 0.010,
               "bench_observability: GATE FAILED — observability costs " +
                   std::to_string(overhead_pct) + "% (> 3% budget)");

  // ---- Anchor ----
  BenchJsonDoc doc("foodmatch-obs-v1", "bench_observability");
  doc.AddField("gates",
               "{\"decision_neutrality\": true, \"overhead\": true}");
  doc.AddField("overhead",
               StrFormat("{\"scenario\": \"%s\", \"shards\": 4, "
                         "\"threads\": 4, \"off_wall_s\": %.6f, "
                         "\"on_wall_s\": %.6f, \"overhead_pct\": %.3f}",
                         kScenario, off_min, on_min, overhead_pct));
  for (const IdentityEntry& e : identity) {
    doc.AddEntry(StrFormat(
        "{\"scenario\": \"%s\", \"shards\": %d, \"threads\": %d,\n"
        "     \"fingerprint\": \"%016llx\", \"instruments\": %zu,\n"
        "     \"trace_events\": %zu, \"trace_dropped\": %llu}",
        kScenario, e.shards, e.threads,
        static_cast<unsigned long long>(e.fingerprint), e.instruments,
        e.trace_events, static_cast<unsigned long long>(e.trace_dropped)));
  }
  if (!doc.Write(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nobservability gates: %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace fm::bench

int main(int argc, char** argv) { return fm::bench::Main(argc, argv); }
