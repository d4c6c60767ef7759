// Sharded-serving scaling study (no paper figure — the serving rung of the
// ROADMAP): region-partitioned DispatchEngines behind one router, swept
// over shard count and thread count, with two hard correctness gates.
//
// Part 1 (gate): a K=1 ShardedDispatchEngine must reproduce the single
// DispatchEngine's WindowResults bit-for-bit for the foodmatch, greedy and
// km policies — the router degenerates to a pass-through.
//
// Part 2 (gate): for K ∈ {2, 4}, the merged WindowResults must be
// bit-identical across Config::threads ∈ {1, 4} — the fork-join over
// shards is deterministic.
//
// Part 3 (sweep): full Simulator replays (kinematics, deliveries, and the
// OrderDelivered retirement stream) through the sharded core, City B, over
// shards × threads. The per-configuration wall clocks and the router's
// serving.{route,shard_window,merge}_seconds histogram sums go to
// BENCH_sharded.json (--out=PATH), the artifact CI uploads next to the
// existing bench JSONs. Per shard count, the XDT totals must be identical
// across thread counts (a third determinism gate); across shard counts the
// XDT may differ — shard-local matching is a deliberate scale/quality
// trade, and the table prints that trade.
//
// Exit status is nonzero when any gate fails, so CI treats a determinism
// or equivalence regression as a build break.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/support.h"
#include "common/flags.h"
#include "common/strings.h"

namespace fm::bench {
namespace {

// The gate plumbing: fm::MakeBatchReplayEvents + fm::ReplayEventStream
// (serving/event_source.h) are the shared event replay the test-side gates
// also use; the WindowResult fingerprint (FNV-1a over the deterministic
// fields) is in bench/support.{h,cc}.

std::uint64_t ShardedStreamFingerprint(const Workload& w,
                                       const DistanceOracle& oracle,
                                       const std::string& policy,
                                       int shards, int threads,
                                       Seconds start, Seconds end) {
  Config config;
  config.accumulation_window = 120.0;
  config.threads = threads;
  config.shards = shards;
  GridRegionPartitioner partitioner(&w.network, shards);
  ShardedEngineOptions options;
  options.engine.measure_wall_clock = false;
  ShardedDispatchEngine engine(&partitioner, policy, &oracle, config,
                               PolicyOptions{}, options);
  return FingerprintWindowResults(
      ReplayEventStream(engine, MakeBatchReplayEvents(w.fleet, w.orders, start),
                        start, end, 120.0));
}

struct ShardedEntry {
  std::string label;
  int shards = 1;
  int threads = 1;
  std::uint64_t windows = 0;
  std::uint64_t delivered = 0;
  std::uint64_t rejected = 0;
  double xdt_hours = 0.0;
  double run_wall_s = 0.0;
  double decision_total_s = 0.0;
  double route_s = 0.0;
  double shard_window_s = 0.0;
  double merge_s = 0.0;
};

bool WriteShardedJson(const std::string& path,
                      const std::vector<ShardedEntry>& entries) {
  BenchJsonDoc doc("foodmatch-sharded-serving-v1", "bench_sharded_serving");
  for (const ShardedEntry& e : entries) {
    doc.AddEntry(StrFormat(
        "{\"label\": \"%s\", \"shards\": %d, \"threads\": %d, "
        "\"windows\": %llu,\n"
        "     \"delivered\": %llu, \"rejected\": %llu, \"xdt_h\": %.6f,\n"
        "     \"run_wall_s\": %.6f, \"decision_total_s\": %.6f,\n"
        "     \"serving\": {\"route_s\": %.6f, \"shard_window_s\": %.6f, "
        "\"merge_s\": %.6f}}",
        e.label.c_str(), e.shards, e.threads,
        static_cast<unsigned long long>(e.windows),
        static_cast<unsigned long long>(e.delivered),
        static_cast<unsigned long long>(e.rejected), e.xdt_hours,
        e.run_wall_s, e.decision_total_s, e.route_s, e.shard_window_s,
        e.merge_s));
  }
  return doc.Write(path);
}

double HistogramSeconds(const obs::MetricsSnapshot& snapshot,
                        const std::string& name) {
  const obs::InstrumentValue* v = snapshot.Find(name);
  return v == nullptr ? 0.0 : v->histogram.sum;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    return 2;
  }
  const std::string out_path = flags.GetString("out", "BENCH_sharded.json");
  PrintBanner("Sharded serving — shard-count sweep + equivalence gates",
              "K region engines behind one router; K=1 == single engine");

  const Seconds start = 12.0 * 3600.0;
  const Seconds end = 13.0 * 3600.0;

  // ---- Part 1: K=1 must equal the single engine, bit for bit ----
  Lab lab;
  RunSpec gate_spec;
  gate_spec.profile = BenchCityA();
  gate_spec.start_time = start;
  gate_spec.end_time = end;
  const Lab::Entry& gate_entry = lab.Get(gate_spec);
  const Workload& gate_w = gate_entry.workload;
  std::printf(
      "Gate 1 (K=1 equivalence, City A, %zu orders, %zu vehicles):\n",
      gate_w.orders.size(), gate_w.fleet.size());
  for (const char* policy : {"foodmatch", "greedy", "km"}) {
    Config config;
    config.accumulation_window = 120.0;
    std::unique_ptr<AssignmentPolicy> single_policy =
        PolicyRegistry::Global().Create(policy, gate_entry.oracle.get(),
                                        config);
    DispatchEngine single(single_policy.get(), config,
                          DispatchEngineOptions{.measure_wall_clock = false});
    const std::uint64_t expected = FingerprintWindowResults(
        ReplayEventStream(
            single, MakeBatchReplayEvents(gate_w.fleet, gate_w.orders, start),
            start, end, 120.0));
    const std::uint64_t sharded = ShardedStreamFingerprint(
        gate_w, *gate_entry.oracle, policy, /*shards=*/1, /*threads=*/1,
        start, end);
    if (expected != sharded) {
      std::fprintf(stderr,
                   "EQUIVALENCE VIOLATION: K=1 sharded %s differs from the "
                   "single engine (%016llx vs %016llx)\n",
                   policy, static_cast<unsigned long long>(sharded),
                   static_cast<unsigned long long>(expected));
      return 1;
    }
    std::printf("  %-9s ok (%016llx)\n", policy,
                static_cast<unsigned long long>(expected));
  }

  // ---- Part 2: K>1 must be thread-count invariant ----
  std::printf("\nGate 2 (K>1 thread determinism, City A, foodmatch):\n");
  for (int shards : {2, 4}) {
    const std::uint64_t one = ShardedStreamFingerprint(
        gate_w, *gate_entry.oracle, "foodmatch", shards, 1, start, end);
    const std::uint64_t four = ShardedStreamFingerprint(
        gate_w, *gate_entry.oracle, "foodmatch", shards, 4, start, end);
    if (one != four) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: K=%d merged results differ "
                   "between 1 and 4 threads (%016llx vs %016llx)\n",
                   shards, static_cast<unsigned long long>(one),
                   static_cast<unsigned long long>(four));
      return 1;
    }
    std::printf("  K=%d       ok (%016llx)\n", shards,
                static_cast<unsigned long long>(one));
  }

  // ---- Part 3: full-replay shard sweep, City B ----
  std::printf(
      "\nShard sweep (City B, FoodMatch, full Simulator replay with\n"
      "OrderDelivered retirement): shard windows fan out across --threads\n"
      "lanes; per K the XDT must be identical for every thread count\n"
      "(asserted). Across K the XDT may shift — shard-local matching is\n"
      "the scale/quality trade this table prints.\n\n");
  Lab lab3;
  RunSpec spec;
  spec.profile = BenchCityB();
  spec.kind = PolicyKind::kFoodMatch;
  spec.start_time = start;
  spec.end_time = end;
  const Lab::Entry& entry = lab3.Get(spec);
  std::vector<ShardedEntry> entries;
  TablePrinter table({"shards", "threads", "run wall(s)", "shard_window(s)",
                      "merge(s)", "delivered", "rejected", "XDT(h)"});
  bool deterministic = true;
  for (int shards : {1, 2, 4, 8}) {
    double xdt_1t = 0.0;
    for (int threads : {1, 4}) {
      Config config = EffectiveConfig(spec);
      config.threads = threads;
      config.shards = shards;
      GridRegionPartitioner partitioner(&entry.workload.network, shards);
      ShardedEngineOptions options;
      options.engine.measure_wall_clock = true;
      obs::MetricsRegistry registry;
      options.metrics = &registry;
      ShardedDispatchEngine core(&partitioner,
                                 RegistryPolicyName(spec.kind),
                                 entry.oracle.get(), config, PolicyOptions{},
                                 options);
      SimulationInput input;
      input.network = &entry.workload.network;
      input.oracle = entry.oracle.get();
      input.config = config;
      input.fleet = entry.workload.fleet;
      input.orders = entry.workload.orders;
      input.start_time = spec.start_time;
      input.end_time = spec.end_time;
      Simulator sim(std::move(input), &core);
      const auto t0 = std::chrono::steady_clock::now();
      const SimulationResult result = sim.Run();
      const double run_wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();

      const Metrics& m = result.metrics;
      if (threads == 1) {
        xdt_1t = m.total_xdt_seconds;
      } else if (m.total_xdt_seconds != xdt_1t) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: K=%d XDT %.9f at %d threads "
                     "!= %.9f at 1 thread\n",
                     shards, m.total_xdt_seconds, threads, xdt_1t);
        deterministic = false;
      }

      ShardedEntry e;
      e.label = "CityB/FoodMatch";
      e.shards = shards;
      e.threads = threads;
      e.windows = m.windows;
      e.delivered = m.orders_delivered;
      e.rejected = m.orders_rejected;
      e.xdt_hours = m.XdtHours();
      e.run_wall_s = run_wall_s;
      e.decision_total_s = m.decision_seconds_total;
      const obs::MetricsSnapshot snapshot = registry.Snapshot();
      e.route_s = HistogramSeconds(snapshot, "serving.route_seconds");
      e.shard_window_s =
          HistogramSeconds(snapshot, "serving.shard_window_seconds");
      e.merge_s = HistogramSeconds(snapshot, "serving.merge_seconds");
      entries.push_back(e);
      table.AddRow({Fmt(shards, 0), Fmt(threads, 0), Fmt(run_wall_s, 2),
                    Fmt(e.shard_window_s, 3), Fmt(e.merge_s, 3),
                    Fmt(static_cast<double>(e.delivered), 0),
                    Fmt(static_cast<double>(e.rejected), 0),
                    Fmt(e.xdt_hours, 3)});
    }
  }
  table.Print();
  if (!deterministic) return 1;

  if (!WriteShardedJson(out_path, entries)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nsharded serving sweep: %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace fm::bench

int main(int argc, char** argv) { return fm::bench::Main(argc, argv); }
