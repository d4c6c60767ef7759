// fmserve — streaming serving driver for the dispatch engine.
//
// Where fmsim replays a recorded day synchronously through the full
// simulator (kinematics, metrics), fmserve exercises the *serving* shape of
// the system: producer threads push a timestamped event log through the
// lock-free intake stages (core/intake_stage.h) while the consumer closes
// accumulation windows behind a WindowExecutor — optionally over a
// region-sharded core. It reports sustained orders/second through intake,
// backpressure counts and the window-results fingerprint. Window decision
// time is the engine.decision_seconds histogram (--metrics-out) and the
// per-phase profile (--profile); open-loop placed→decision latency under
// a stated arrival rate is perfbench's job (perfbench/README.md).
//
// The stream is the canonical static-fleet batch-replay stream (every
// vehicle announced at start, one OrderPlaced per order) — either
// synthesized from a generated city workload, read back from an event log
// written by --write-log (serving/event_log.h), or generated by a named
// stress scenario (--scenario, src/stress/) with demand surges, flash
// crowds, and vehicle shift churn folded into the stream. --verify replays
// the same stream synchronously on a fresh core and insists the
// WindowResult fingerprints match bit-for-bit.
//
// Flags: `fmserve --help` prints the table that also defines the accepted
// set — the shared rows in run_spec.cc, fmserve's own in ServeFlags().
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "foodmatch/foodmatch.h"
#include "run_spec.h"

namespace fm {
namespace {

std::vector<FlagDoc> ServeFlags() {
  return {
      {"scenario", "NAME",
       "stress scenario overlaying the city profile\n(" +
           Join(StressScenarioNames(), ", ") +
           ");\nreplaces the synthesized stream with the\nscenario's "
           "surge/burst/shift event stream\n(its shift plan owns the fleet)"},
      {"stress-seed", "N",
       "extra seed folded into the scenario\ngenerator (default 0)"},
      {"producers", "P",
       "ingest threads pushing the event stream\n(default 1; results "
       "identical for any P)"},
      {"speedup", "S",
       "replay pacing: S event-seconds per\nwall-second (1 = real time; "
       "default 0 =\nflat out, the throughput mode)"},
      {"restore", "",
       "kill shard 0 at the mid-stream window and\nrestore it from snapshot "
       "+ WAL while the\nother shards keep serving (requires\n--wal-dir; "
       "pair with --verify to prove the\nrestored run bit-identical)"},
      {"log", "PATH",
       "replay this event log instead of\nsynthesizing the stream (ids must "
       "match the\ngenerated city — pair with --write-log)"},
      {"write-log", "PATH", "write the replayed stream as an event log"},
      {"out", "PATH", "write the serving report as JSON"},
      {"metrics-out", "PATH",
       "live telemetry: register the full metrics\nset "
       "(docs/OBSERVABILITY.md) and append one\nJSONL registry snapshot per "
       "cadence tick"},
      {"metrics-every", "S",
       "telemetry cadence in wall seconds (default\n5.0; 0 samples at every "
       "window close)"},
      {"verify", "",
       "also replay synchronously on a fresh core\nand require bit-identical "
       "window results"},
  };
}

int Main(int argc, char** argv) {
  const RunSpec spec = ParseRunSpec(
      argc, argv, "fmserve — FoodMatch streaming intake driver", ServeFlags());
  const FlagParser& flags = spec.flags;
  const Config& config = spec.config;
  const std::string scenario_name = flags.GetString("scenario");
  if (flags.HasFlag("scenario")) {
    RequireChoice("scenario", scenario_name, StressScenarioNames());
  }
  RejectFlagWith(spec, "log", "scenario");
  RejectFlagWith(spec, "fleet", "scenario");
  RejectFlagWith(spec, "fleet", "log");
  RequireFlag(spec, "stress-seed", "scenario");
  RequireFlag(spec, "restore", "wal-dir");
  RequireFlag(spec, "metrics-every", "metrics-out");

  Workload workload;
  std::vector<StampedEvent> stress_events;
  if (scenario_name.empty()) {
    workload = GenerateWorkload(spec.city, spec.horizon);
  } else {
    StressGenOptions stress_options;
    stress_options.seed =
        static_cast<std::uint64_t>(flags.GetInt("stress-seed", 0));
    stress_options.start_time = spec.horizon.start_time;
    stress_options.end_time = spec.horizon.end_time;
    stress_options.day = spec.horizon.day;
    StressWorkload stress = GenerateStressWorkload(
        spec.city, StressScenario(scenario_name), stress_options);
    std::printf(
        "scenario %s: %llu order events (%llu burst), %llu vehicle "
        "updates, %llu retirements\n",
        scenario_name.c_str(),
        static_cast<unsigned long long>(stress.order_events),
        static_cast<unsigned long long>(stress.burst_orders),
        static_cast<unsigned long long>(stress.vehicle_updates),
        static_cast<unsigned long long>(stress.retirements));
    workload = std::move(stress.base);
    stress_events = std::move(stress.events);
  }

  // --profile: oracle.warm plus every window's decision phases.
  double warm_seconds = 0.0;
  const std::unique_ptr<DistanceOracle> oracle =
      WarmOracle(spec, workload.network, &warm_seconds);

  const std::vector<Vehicle> fleet =
      scenario_name.empty() ? SubsampleFleet(workload.fleet, spec.fleet)
                            : workload.fleet;
  const Seconds start = spec.horizon.start_time;
  const Seconds end = spec.horizon.end_time;
  const Seconds delta = config.accumulation_window;

  const std::string log_path = flags.GetString("log");
  std::vector<StampedEvent> events =
      !scenario_name.empty() ? std::move(stress_events)
      : log_path.empty()
          ? MakeBatchReplayEvents(fleet, workload.orders, start)
          : ReadEventLog(log_path, workload.network.num_nodes());
  const std::string write_log = flags.GetString("write-log");
  if (!write_log.empty()) {
    WriteEventLog(write_log, events);
    std::printf("event log: %s (%zu events)\n", write_log.c_str(),
                events.size());
  }

  const int producers = flags.GetInt("producers", 1);

  // Observability: --metrics-out and --profile share one registry for the
  // serving run (the verify core below deliberately gets none — a registry
  // rejects duplicate names); --metrics-out tails it to JSONL, --profile
  // prints its timings; --trace-out records spans + order lifecycles for
  // Perfetto. The sharded router registers the serving/WAL/oracle/EdgeCache
  // set, the WindowExecutor the intake/executor/core set.
  const std::string metrics_out = flags.GetString("metrics-out");
  const double metrics_every = flags.GetDouble("metrics-every", 5.0);
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics =
      metrics_out.empty() && !spec.profile ? nullptr : &registry;

  CoreBundle serving = MakeCore(spec, workload.network, *oracle,
                                {.wal_dir = spec.wal_dir, .metrics = metrics});

  StreamReplayStats stats;
  StreamReplayOptions stream_options;
  stream_options.producers = producers;
  stream_options.stages = config.shards;
  stream_options.queue_capacity =
      static_cast<std::size_t>(config.intake_queue_capacity);
  stream_options.prestage = config.intake_prestage;
  stream_options.oracle = oracle.get();
  stream_options.router = MakeRegionStageRouter(&serving.sharded->partitioner());
  stream_options.metrics = metrics;
  stream_options.speedup = flags.GetDouble("speedup", 0.0);
  stream_options.stats = &stats;
  if (flags.HasFlag("restore")) {
    // The callback runs on the consumer thread after the close — the core
    // is quiescent there, and the other shards' engines are untouched
    // (they keep serving from their own WALs).
    stream_options.on_window_closed =
        MidpointRestoreHook(spec, serving.sharded.get());
  }

  // Telemetry samples ride the consumer thread's window-close callback,
  // composing with (after) the restore hook when both are set. The logger's
  // destructor writes one final line, so even a short run yields a sample.
  std::unique_ptr<obs::TelemetryLogger> telemetry;
  if (!metrics_out.empty()) {
    telemetry = std::make_unique<obs::TelemetryLogger>(metrics_out, metrics,
                                                       metrics_every);
    if (!telemetry->ok()) {
      std::fprintf(stderr, "failed to write %s\n", metrics_out.c_str());
      return 1;
    }
    stream_options.on_window_closed =
        [logger = telemetry.get(),
         inner = std::move(stream_options.on_window_closed)](
            Seconds now, std::size_t window) {
          if (inner) inner(now, window);
          logger->MaybeSample();
        };
  }

  if (!spec.trace_out.empty()) obs::Tracer::Global().Enable();

  std::printf(
      "%s (1/%.0f): %zu nodes, %zu events, %zu vehicles, policy=%s, "
      "shards=%d, producers=%d, capacity=%d, prestage=%s, speedup=%s\n",
      spec.city.name.c_str(), spec.scale, workload.network.num_nodes(),
      events.size(), fleet.size(), spec.policy.c_str(), config.shards,
      producers, config.intake_queue_capacity,
      config.intake_prestage ? "on" : "off",
      stream_options.speedup > 0.0 ? "throttled" : "max");

  const std::vector<WindowResult> results =
      StreamReplay(*serving.sharded, events, start, end, delta, stream_options);
  const std::uint64_t fingerprint = FingerprintWindowResults(results);

  const double orders_per_second =
      stats.wall_seconds > 0.0
          ? static_cast<double>(stats.orders_submitted) / stats.wall_seconds
          : 0.0;

  std::printf(
      "windows=%zu orders=%llu events=%llu dropped=%llu blocked=%llu\n",
      results.size(),
      static_cast<unsigned long long>(stats.orders_submitted),
      static_cast<unsigned long long>(stats.events_submitted),
      static_cast<unsigned long long>(stats.dropped_invalid),
      static_cast<unsigned long long>(stats.blocked_pushes));
  std::printf("sustained %.0f orders/s over %.3f s\n", orders_per_second,
              stats.wall_seconds);
  std::printf("window-results fingerprint: %016llx\n",
              static_cast<unsigned long long>(fingerprint));

  // Close the observability outputs before the verify replay: the trace
  // and the telemetry tail should cover exactly the serving run.
  if (telemetry != nullptr) {
    const std::uint64_t samples = telemetry->samples() + 1;  // +1: final line
    telemetry.reset();
    std::printf("telemetry jsonl: %s (%llu samples, every %.1f s)\n",
                metrics_out.c_str(),
                static_cast<unsigned long long>(samples), metrics_every);
  }
  if (!spec.trace_out.empty() && !FinishTrace(spec.trace_out)) return 1;

  if (flags.HasFlag("verify")) {
    CoreBundle batch = MakeCore(spec, workload.network, *oracle);
    if (!VerifyFingerprint(
            "streaming", "synchronous", fingerprint,
            FingerprintWindowResults(ReplayEventStream(
                *batch.sharded, events, start, end, delta)))) {
      return 1;
    }
  }

  if (spec.profile) {
    double batching = 0.0;
    double graph = 0.0;
    double matching = 0.0;
    for (const WindowResult& r : results) {
      batching += r.decision.batching_seconds;
      graph += r.decision.graph_seconds;
      matching += r.decision.matching_seconds;
    }
    PrintProfile({{"oracle.warm", warm_seconds},
                  {"batching", batching},
                  {"graph.build", graph},
                  {"matching.km", matching}},
                 registry, config.threads);
  }

  const std::string out = flags.GetString("out");
  if (!out.empty()) {
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "failed to write %s\n", out.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"schema\": \"foodmatch-fmserve-v3\",\n"
        "  \"city\": \"%s\", \"scale\": %.0f, \"policy\": \"%s\",\n"
        "  \"scenario\": \"%s\",\n"
        "  \"shards\": %d, \"threads\": %d, \"producers\": %d,\n"
        "  \"intake_capacity\": %d, \"prestage\": %s, \"speedup\": %.3f,\n"
        "  \"windows\": %zu, \"orders_submitted\": %llu,\n"
        "  \"events_submitted\": %llu, \"dropped_invalid\": %llu,\n"
        "  \"blocked_pushes\": %llu,\n"
        "  \"wall_seconds\": %.6f, \"orders_per_second\": %.3f,\n"
        "  \"fingerprint\": \"%016llx\"\n"
        "}\n",
        spec.city.name.c_str(), spec.scale, spec.policy.c_str(),
        scenario_name.c_str(), config.shards, config.threads, producers,
        config.intake_queue_capacity,
        config.intake_prestage ? "true" : "false", stream_options.speedup,
        results.size(),
        static_cast<unsigned long long>(stats.orders_submitted),
        static_cast<unsigned long long>(stats.events_submitted),
        static_cast<unsigned long long>(stats.dropped_invalid),
        static_cast<unsigned long long>(stats.blocked_pushes),
        stats.wall_seconds, orders_per_second,
        static_cast<unsigned long long>(fingerprint));
    std::fclose(f);
    std::printf("report json: %s\n", out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace fm

int main(int argc, char** argv) { return fm::Main(argc, argv); }
