// bench_stress — streaming-serving gates + the stress-scenario sweep.
//
// Part 1 hard-gates the streaming intake's determinism contracts:
//   * same (scenario, seed) → byte-identical on-disk event log; a different
//     seed must produce a different log;
//   * replay bit-identity: for each gate stream the streamed WindowResult
//     fingerprint matches the synchronous baseline across threads ∈ {1,4},
//     shards ∈ {1,4}, producers ∈ {1,4}, and the K=1 core matches the plain
//     single engine. The gate streams are three scenarios that exercise
//     every event kind plus the plain batch-replay stream (CityA 1/40,
//     12–13 h, ∆ = 120 s, small rings that force backpressure).
// Part 2 sweeps the six named scenarios plus the plain CityB stream × shard
// counts through the streaming intake (wall-clock measurement off) and
// records counts, throughput and fingerprints into BENCH_stress.json
// (schema foodmatch-stress-v2) — the stress anchor CI uploads per commit.
// The flash-crowd and shift-change rows run at a bounded intake capacity
// and are hard-gated to exercise backpressure (blocked_pushes > 0).
// Decision latency under open-loop arrivals is perfbench's job, not this
// closed-loop replay's.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/support.h"
#include "common/flags.h"
#include "common/strings.h"

namespace fm::bench {
namespace {

// Gate runs: small and fast — identity does not need volume.
constexpr double kGateScale = 160.0;
// Sweep runs: the standard bench scale, lunch window (covers every
// scenario's surge/burst/shift activity).
constexpr double kSweepScale = 40.0;
// The amplifying scenarios sweep from smaller bases so the whole bench
// stays CI-sized: mega-city multiplies its base ×10, kitchen-sink ×2 on
// top of a surge + a burst.
constexpr double kMegaCityScale = 320.0;
constexpr double kKitchenSinkScale = 80.0;
constexpr Seconds kStart = 11.0 * 3600.0;
constexpr Seconds kEnd = 13.0 * 3600.0;
// The plain (no-overlay) batch-replay streams: every vehicle announced at
// the start, one OrderPlaced per order, over the lunch hour at ∆ = 120 s —
// CityA 1/40 in the replay gate, CityB 1/80 in the sweep.
constexpr double kPlainGateScale = 40.0;
constexpr double kPlainSweepScale = 80.0;
constexpr Seconds kPlainStart = 12.0 * 3600.0;
constexpr Seconds kPlainEnd = 13.0 * 3600.0;
constexpr Seconds kPlainDelta = 120.0;
// Bounded capacity for the backpressure rows and the plain gate stream;
// everything else runs at the serving default.
constexpr std::size_t kBoundedCapacity = 32;
constexpr std::size_t kPlainGateCapacity = 256;
constexpr std::size_t kDefaultCapacity = 4096;

// Every replay goes through the sharded core, K=1 included; the plain
// DispatchEngine is built only as GateReplayIdentity's reference.
struct StressCore {
  std::unique_ptr<GridRegionPartitioner> partitioner;
  std::unique_ptr<ShardedDispatchEngine> sharded;
};

StressCore MakeCore(const RoadNetwork& network, const DistanceOracle& oracle,
                    const Config& config) {
  StressCore bundle;
  bundle.partitioner =
      std::make_unique<GridRegionPartitioner>(&network, config.shards);
  ShardedEngineOptions options;
  options.engine.measure_wall_clock = false;
  bundle.sharded = std::make_unique<ShardedDispatchEngine>(
      bundle.partitioner.get(), "foodmatch", &oracle, config,
      PolicyOptions{}, options);
  return bundle;
}

// A generated stream plus its warmed oracle, reused across replays: a
// named stress scenario over kStart–kEnd at the profile's ∆, or the plain
// batch-replay stream (scenario "plain", no overlay).
struct Instance {
  std::string scenario;
  StressWorkload stress;
  Seconds start = kStart;
  Seconds end = kEnd;
  Seconds delta = 0.0;
  // Intake ring capacity every replay of this instance runs at.
  std::size_t capacity = kDefaultCapacity;
  std::unique_ptr<DistanceOracle> oracle;
};

Config MakeConfig(const Instance& inst, int threads, int shards) {
  Config config;
  config.accumulation_window = inst.delta;
  config.threads = threads;
  config.shards = shards;
  config.intake_queue_capacity = static_cast<int>(inst.capacity);
  config.Validate();
  return config;
}

void WarmOracle(Instance* inst) {
  inst->oracle = std::make_unique<DistanceOracle>(&inst->stress.base.network,
                                                  OracleBackend::kHubLabels);
  const int first = HourSlot(inst->start);
  const int last = std::min(kSlotsPerDay - 1, HourSlot(inst->end) + 2);
  ThreadPool warm_pool(ThreadPool::ResolveThreadCount(0));
  inst->oracle->WarmSlots(first, last, &warm_pool);
}

Instance MakeInstance(const CityProfile& profile, const std::string& scenario,
                      std::uint64_t seed, std::size_t capacity) {
  Instance inst;
  inst.scenario = scenario;
  StressGenOptions options;
  options.seed = seed;
  options.start_time = kStart;
  options.end_time = kEnd;
  inst.stress = GenerateStressWorkload(profile, StressScenario(scenario),
                                       options);
  inst.delta = inst.stress.base.profile.default_delta;
  inst.capacity = capacity;
  WarmOracle(&inst);
  return inst;
}

Instance MakePlainInstance(const CityProfile& profile, std::size_t capacity) {
  Instance inst;
  inst.scenario = "plain";
  inst.start = kPlainStart;
  inst.end = kPlainEnd;
  inst.delta = kPlainDelta;
  inst.capacity = capacity;
  WorkloadOptions options;
  options.start_time = kPlainStart;
  options.end_time = kPlainEnd;
  Workload& base = inst.stress.base;
  base = GenerateWorkload(profile, options);
  inst.stress.events =
      MakeBatchReplayEvents(base.fleet, base.orders, kPlainStart);
  inst.stress.order_events = base.orders.size();
  inst.stress.vehicle_updates = base.fleet.size();
  WarmOracle(&inst);
  return inst;
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  FM_CHECK_MSG(f != nullptr, "bench_stress: cannot reopen " + path);
  std::string bytes;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

// Generates the scenario at `seed` and returns the serialized event log.
std::string LogBytes(const CityProfile& profile, const std::string& scenario,
                     std::uint64_t seed, const std::string& tmp_path) {
  StressGenOptions options;
  options.seed = seed;
  options.start_time = kStart;
  options.end_time = kEnd;
  const StressWorkload stress =
      GenerateStressWorkload(profile, StressScenario(scenario), options);
  WriteEventLog(tmp_path, stress.events);
  std::string bytes = ReadFileBytes(tmp_path);
  std::remove(tmp_path.c_str());
  return bytes;
}

// Gate 1: byte-identical regeneration for every named scenario.
void GateLogByteIdentity() {
  const CityProfile profile = CityAProfile(kGateScale);
  for (const std::string& scenario : StressScenarioNames()) {
    const std::string tmp = "bench_stress_gate.log";
    const std::string a = LogBytes(profile, scenario, 0, tmp);
    const std::string b = LogBytes(profile, scenario, 0, tmp);
    FM_CHECK_MSG(!a.empty(), "bench_stress: empty event log for " + scenario);
    FM_CHECK_MSG(a == b, "bench_stress: GATE FAILED — scenario '" + scenario +
                         "' regenerated with the same seed is not "
                         "byte-identical");
    const std::string c = LogBytes(profile, scenario, 1, tmp);
    FM_CHECK_MSG(a != c, "bench_stress: GATE FAILED — scenario '" + scenario +
                         "' ignores the stress seed (seed 0 == seed 1)");
    std::printf("  gate log-identity   %-12s %zu bytes, seed-sensitive\n",
                scenario.c_str(), a.size());
  }
}

std::uint64_t SyncFingerprint(const Instance& inst, const Config& config) {
  StressCore bundle = MakeCore(inst.stress.base.network, *inst.oracle, config);
  return FingerprintWindowResults(ReplayEventStream(
      *bundle.sharded, inst.stress.events, inst.start, inst.end, inst.delta));
}

// The K=1 reference: a plain DispatchEngine, no router, replayed
// synchronously.
std::uint64_t SingleEngineFingerprint(const Instance& inst) {
  const Config config = MakeConfig(inst, /*threads=*/1, /*shards=*/1);
  std::unique_ptr<AssignmentPolicy> policy = PolicyRegistry::Global().Create(
      "foodmatch", inst.oracle.get(), config, PolicyOptions{});
  DispatchEngine engine(policy.get(), config,
                        DispatchEngineOptions{.measure_wall_clock = false});
  return FingerprintWindowResults(ReplayEventStream(
      engine, inst.stress.events, inst.start, inst.end, inst.delta));
}

std::uint64_t StreamedFingerprint(const Instance& inst, const Config& config,
                                  int producers) {
  StressCore bundle = MakeCore(inst.stress.base.network, *inst.oracle, config);
  StreamReplayOptions options;
  options.producers = producers;
  options.stages = config.shards;
  options.queue_capacity =
      static_cast<std::size_t>(config.intake_queue_capacity);
  options.oracle = inst.oracle.get();
  options.router = MakeRegionStageRouter(bundle.partitioner.get());
  return FingerprintWindowResults(StreamReplay(
      *bundle.sharded, inst.stress.events, inst.start, inst.end, inst.delta,
      options));
}

// Gate 2: replay bit-identity across threads × shards × producers, plus
// K=1 sharded == single engine.
void GateReplayIdentity(const Instance& inst) {
  const std::string& scenario = inst.scenario;
  const std::uint64_t single = SingleEngineFingerprint(inst);
  // K=1 sharded core, synchronous, must equal the plain single engine.
  FM_CHECK_MSG(SyncFingerprint(inst, MakeConfig(inst, 1, 1)) == single,
           "bench_stress: GATE FAILED — scenario '" + scenario +
               "' K=1 does not match the single engine");
  for (int shards : {1, 4}) {
    // At K=1 every streamed sharded run is held to the plain engine too.
    const std::uint64_t want =
        shards == 1 ? single
                    : SyncFingerprint(inst, MakeConfig(inst, 1, shards));
    for (int threads : {1, 4}) {
      for (int producers : {1, 4}) {
        const std::uint64_t got = StreamedFingerprint(
            inst, MakeConfig(inst, threads, shards), producers);
        FM_CHECK_MSG(got == want,
                 "bench_stress: GATE FAILED — scenario '" + scenario +
                     "' streamed fingerprint diverges at shards=" +
                     std::to_string(shards) + " threads=" +
                     std::to_string(threads) + " producers=" +
                     std::to_string(producers));
      }
    }
    std::printf(
        "  gate replay-identity %-12s K=%d fingerprint %016llx over "
        "threads x producers in {1,4}^2\n",
        scenario.c_str(), shards, static_cast<unsigned long long>(want));
  }
}

// ---- Part 2: the serving sweep ----

struct SweepEntry {
  std::string scenario;
  std::string city;
  double scale = 0.0;
  int shards = 1;
  int threads = 1;
  int producers = 1;
  std::size_t capacity = 0;
  std::size_t events = 0;
  std::uint64_t orders = 0;
  std::uint64_t burst_orders = 0;
  std::uint64_t vehicle_updates = 0;
  std::uint64_t retirements = 0;
  std::size_t windows = 0;
  std::uint64_t blocked_pushes = 0;
  std::uint64_t migrations = 0;
  double wall_seconds = 0.0;
  double orders_per_second = 0.0;
  std::uint64_t fingerprint = 0;
};

SweepEntry RunSweep(const Instance& inst, double scale, int shards) {
  const Config config = MakeConfig(inst, /*threads=*/1, shards);
  StressCore bundle = MakeCore(inst.stress.base.network, *inst.oracle, config);
  StreamReplayStats stats;
  StreamReplayOptions options;
  options.producers = 2;
  options.stages = config.shards;
  options.queue_capacity = inst.capacity;
  options.oracle = inst.oracle.get();
  options.router = MakeRegionStageRouter(bundle.partitioner.get());
  options.stats = &stats;
  const std::vector<WindowResult> results = StreamReplay(
      *bundle.sharded, inst.stress.events, inst.start, inst.end, inst.delta,
      options);

  SweepEntry e;
  e.scenario = inst.scenario;
  e.city = inst.stress.base.profile.name;
  e.scale = scale;
  e.shards = shards;
  e.threads = config.threads;
  e.producers = options.producers;
  e.capacity = inst.capacity;
  e.events = inst.stress.events.size();
  e.orders = inst.stress.order_events;
  e.burst_orders = inst.stress.burst_orders;
  e.vehicle_updates = inst.stress.vehicle_updates;
  e.retirements = inst.stress.retirements;
  e.windows = results.size();
  e.blocked_pushes = stats.blocked_pushes;
  e.migrations = bundle.sharded->migrations();
  e.wall_seconds = stats.wall_seconds;
  e.orders_per_second =
      stats.wall_seconds > 0.0
          ? static_cast<double>(stats.orders_submitted) / stats.wall_seconds
          : 0.0;
  e.fingerprint = FingerprintWindowResults(results);
  return e;
}

bool WriteStressJson(const std::string& path,
                     const std::vector<SweepEntry>& entries) {
  BenchJsonDoc doc("foodmatch-stress-v2", "bench_stress");
  doc.AddField("gates",
               "{\"log_byte_identity\": true, \"replay_identity\": true, "
               "\"backpressure\": true}");
  for (const SweepEntry& e : entries) {
    doc.AddEntry(StrFormat(
        "{\"scenario\": \"%s\", \"city\": \"%s\", \"scale\": %.0f,\n"
        "     \"shards\": %d, \"threads\": %d, \"producers\": %d, "
        "\"intake_capacity\": %zu,\n"
        "     \"events\": %zu, \"orders\": %llu, \"burst_orders\": %llu,\n"
        "     \"vehicle_updates\": %llu, \"retirements\": %llu, "
        "\"windows\": %zu,\n"
        "     \"blocked_pushes\": %llu, \"migrations\": %llu,\n"
        "     \"wall_seconds\": %.6f, \"orders_per_second\": %.3f,\n"
        "     \"fingerprint\": \"%016llx\"}",
        e.scenario.c_str(), e.city.c_str(), e.scale,
        e.shards, e.threads, e.producers, e.capacity, e.events,
        static_cast<unsigned long long>(e.orders),
        static_cast<unsigned long long>(e.burst_orders),
        static_cast<unsigned long long>(e.vehicle_updates),
        static_cast<unsigned long long>(e.retirements), e.windows,
        static_cast<unsigned long long>(e.blocked_pushes),
        static_cast<unsigned long long>(e.migrations), e.wall_seconds,
        e.orders_per_second, static_cast<unsigned long long>(e.fingerprint)));
  }
  return doc.Write(path);
}

int Main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    return 2;
  }
  const std::string out_path = flags.GetString("out", "BENCH_stress.json");
  PrintBanner(
      "bench_stress — streaming-serving gates + stress-scenario sweep",
      "production dynamics (§V): skewed demand, surges, flash crowds, "
      "fleet churn — served within the accumulation window");

  std::printf("\n[1/3] determinism gates (CityA 1/%.0f, %g-%gh; plain "
              "CityA 1/%.0f, %g-%gh)\n",
              kGateScale, kStart / 3600.0, kEnd / 3600.0, kPlainGateScale,
              kPlainStart / 3600.0, kPlainEnd / 3600.0);
  GateLogByteIdentity();
  // The replay matrix runs on the scenarios that exercise every event kind:
  // kitchen-sink (all overlays at once), shift-change (churn + id reuse),
  // flash-crowd (burst volume) — and on the plain batch-replay stream,
  // fmserve's default input.
  for (const char* scenario : {"kitchen-sink", "shift-change", "flash-crowd"}) {
    GateReplayIdentity(MakeInstance(CityAProfile(kGateScale), scenario,
                                    /*seed=*/0, kDefaultCapacity));
  }
  GateReplayIdentity(MakePlainInstance(CityAProfile(kPlainGateScale),
                                       kPlainGateCapacity));

  std::printf("\n[2/3] serving sweep (CityA 1/%.0f; mega-city from 1/%.0f, "
              "kitchen-sink from 1/%.0f; plain CityB 1/%.0f)\n",
              kSweepScale, kMegaCityScale, kKitchenSinkScale,
              kPlainSweepScale);
  std::vector<SweepEntry> entries;
  TablePrinter table({"scenario", "K", "events", "windows", "blocked",
                      "migr", "ret", "wall(s)", "fingerprint"});
  auto sweep = [&](const Instance& inst, double scale) {
    for (int shards : {1, 4}) {
      SweepEntry e = RunSweep(inst, scale, shards);
      if (inst.capacity == kBoundedCapacity) {
        // Hard gate: the bounded rows must actually exercise backpressure —
        // a full staging ring that blocks (never drops) producers.
        FM_CHECK_MSG(e.blocked_pushes > 0,
                 "bench_stress: GATE FAILED — scenario '" + inst.scenario +
                     "' at capacity " + std::to_string(inst.capacity) +
                     " never blocked a push (backpressure unexercised)");
      }
      table.AddRow({e.scenario, Fmt(shards, 0), Fmt(e.events, 0),
                    Fmt(e.windows, 0), Fmt(e.blocked_pushes, 0),
                    Fmt(e.migrations, 0), Fmt(e.retirements, 0),
                    Fmt(e.wall_seconds, 2),
                    StrFormat("%016llx", static_cast<unsigned long long>(
                                             e.fingerprint))});
      entries.push_back(std::move(e));
    }
  };
  for (const std::string& scenario : StressScenarioNames()) {
    const bool bounded =
        scenario == "flash-crowd" || scenario == "shift-change";
    const double scale = scenario == "mega-city"      ? kMegaCityScale
                         : scenario == "kitchen-sink" ? kKitchenSinkScale
                                                      : kSweepScale;
    sweep(MakeInstance(CityAProfile(scale), scenario, /*seed=*/0,
                       bounded ? kBoundedCapacity : kDefaultCapacity),
          scale);
  }
  // The plain CityB stream anchors the intake path with no overlay.
  sweep(MakePlainInstance(CityBProfile(kPlainSweepScale), kDefaultCapacity),
        kPlainSweepScale);
  table.Print();

  std::printf("\n[3/3] report\n");
  if (!WriteStressJson(out_path, entries)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("  wrote %s (%zu entries)\n", out_path.c_str(), entries.size());
  return 0;
}

}  // namespace
}  // namespace fm::bench

int main(int argc, char** argv) { return fm::bench::Main(argc, argv); }
