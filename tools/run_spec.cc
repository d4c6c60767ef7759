#include "run_spec.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/time.h"
#include "durability/recovery.h"
#include "obs/trace.h"

namespace fm {
namespace {

struct City {
  const char* name;
  CityProfile (*make)(double scale);
};
constexpr City kCities[] = {{"A", CityAProfile},
                            {"B", CityBProfile},
                            {"C", CityCProfile},
                            {"grubhub", GrubhubProfile}};

std::vector<FlagDoc> SharedFlags() {
  return {
      {"city", "A|B|C|grubhub", "city profile (default A)"},
      {"scale", "N", "Table II scale divisor (default 80)"},
      {"policy", "NAME",
       "one of: " + PolicyRegistry::Global().NamesString() +
           "\n(default foodmatch)"},
      {"k", "K", "fixed FOODGRAPH degree (0 = auto)"},
      {"start", "H", "order-intake start, hours (default 10)"},
      {"end", "H", "order-intake end, hours (default 15)"},
      {"fleet", "F", "fleet fraction (default 1.0)"},
      {"day", "N", "workload day / fold (default 0)"},
      {"delta", "S", "accumulation window override, seconds"},
      {"eta", "S", "batching cutoff override, seconds"},
      {"gamma", "G", "angular weight override"},
      {"threads", "N",
       "assignment-pipeline lanes (1 = serial,\n0 = hardware; results "
       "identical for any N)"},
      {"shards", "K",
       "region shards: K grid-partitioned dispatch\nengines behind one "
       "router (default 1; K=1\nis bit-identical to the unsharded engine;\n"
       "shard windows run in parallel on --threads)"},
      {"intake-capacity", "N",
       "staging-ring capacity (default 4096; full\nrings backpressure, "
       "never drop; fmsim\nneeds --stream)"},
      {"no-prestage", "",
       "disable producer-side order pre-routing\n(fmsim needs --stream)"},
      {"wal-dir", "PATH",
       "per-shard write-ahead log + snapshots under\nPATH (bit-neutral)"},
      {"snapshot-every", "N",
       "snapshot cadence in closed windows\n(default 8; requires --wal-dir)"},
      {"trace-out", "PATH",
       "record spans (batching sub-phases, window\ncloses, shard fan-outs, "
       "order lifecycles)\nand write Chrome trace-event JSON — open in\n"
       "Perfetto (ui.perfetto.dev) or chrome://tracing"},
      {"profile", "",
       "print the decision phases' wall clock and\nthe registry's timing "
       "histograms"},
  };
}

void PrintHelp(const std::string& title, const std::vector<FlagDoc>& table) {
  std::printf("%s\n\n", title.c_str());
  for (const FlagDoc& row : table) {
    std::string usage = "--" + row.name;
    if (!row.value.empty()) usage += "=" + row.value;
    std::vector<std::string> lines = Split(row.help, '\n');
    if (usage.size() > 22) {
      std::printf("  %s\n", usage.c_str());
      usage.clear();
    }
    for (const std::string& line : lines) {
      std::printf("  %-22s %s\n", usage.c_str(), line.c_str());
      usage.clear();
    }
  }
  std::printf("  %-22s %s\n", "--help", "this text");
}

}  // namespace

void UsageError(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(2);
}

void RequireChoice(const std::string& flag, const std::string& value,
                   const std::vector<std::string>& choices) {
  if (std::find(choices.begin(), choices.end(), value) == choices.end()) {
    UsageError("unknown --" + flag + "=" + value + " (choices: " +
               Join(choices, ", ") + ")");
  }
}

void RequireFlag(const RunSpec& spec, const std::string& flag,
                 const std::string& needed) {
  if (spec.flags.HasFlag(flag) && !spec.flags.HasFlag(needed)) {
    UsageError("--" + flag + " requires --" + needed);
  }
}

void RejectFlagWith(const RunSpec& spec, const std::string& flag,
                    const std::string& mode) {
  if (spec.flags.HasFlag(flag) && spec.flags.HasFlag(mode)) {
    UsageError("--" + flag + " is ignored with --" + mode);
  }
}

RunSpec ParseRunSpec(int argc, char** argv, const std::string& title,
                     const std::vector<FlagDoc>& tool_flags) {
  std::vector<FlagDoc> table = SharedFlags();
  table.insert(table.end(), tool_flags.begin(), tool_flags.end());

  RunSpec spec;
  FlagParser& flags = spec.flags;
  if (!flags.Parse(argc, argv)) UsageError(flags.error());
  if (flags.HasFlag("help")) {
    PrintHelp(title, table);
    std::exit(0);
  }
  if (!flags.positional().empty()) {
    UsageError("unexpected argument '" + flags.positional().front() + "'");
  }
  for (const auto& [name, value] : flags.flags()) {
    const auto row = std::find_if(
        table.begin(), table.end(),
        [&name](const FlagDoc& doc) { return doc.name == name; });
    if (row == table.end()) {
      std::vector<std::string> names;
      for (const FlagDoc& doc : table) names.push_back("--" + doc.name);
      names.push_back("--help");
      UsageError("unknown flag --" + name + " (flags: " + Join(names, ", ") +
                 ")");
    }
    if (row->value.empty() && value != "true") {
      UsageError("--" + name + " is a switch and takes no value (got '" +
                 value + "')");
    }
  }

  const std::string city = flags.GetString("city", "A");
  std::vector<std::string> city_names;
  for (const City& c : kCities) city_names.push_back(c.name);
  RequireChoice("city", city, city_names);
  spec.scale = flags.GetDouble("scale", 80.0);
  for (const City& c : kCities) {
    if (city == c.name) spec.city = c.make(spec.scale);
  }

  spec.policy = flags.GetString("policy", "foodmatch");
  RequireChoice("policy", spec.policy, PolicyRegistry::Global().Names());
  spec.policy_options.fixed_k = flags.GetInt("k", 0);

  spec.horizon.start_time = flags.GetDouble("start", 10.0) * 3600.0;
  spec.horizon.end_time = flags.GetDouble("end", 15.0) * 3600.0;
  spec.horizon.day = static_cast<std::uint64_t>(flags.GetInt("day", 0));
  spec.fleet = flags.GetDouble("fleet", 1.0);

  Config& config = spec.config;
  config.accumulation_window =
      flags.GetDouble("delta", spec.city.default_delta);
  config.batching_cutoff = flags.GetDouble("eta", config.batching_cutoff);
  config.gamma = flags.GetDouble("gamma", config.gamma);
  config.threads = flags.GetInt("threads", config.threads);
  config.shards = flags.GetInt("shards", config.shards);
  config.intake_queue_capacity =
      flags.GetInt("intake-capacity", config.intake_queue_capacity);
  if (flags.HasFlag("no-prestage")) config.intake_prestage = false;
  config.snapshot_every_windows =
      flags.GetInt("snapshot-every", config.snapshot_every_windows);
  config.Validate();

  RequireFlag(spec, "snapshot-every", "wal-dir");
  spec.wal_dir = flags.GetString("wal-dir");
  spec.trace_out = flags.GetString("trace-out");
  spec.profile = flags.HasFlag("profile");
  return spec;
}

std::unique_ptr<DistanceOracle> WarmOracle(const RunSpec& spec,
                                           const RoadNetwork& network,
                                           double* warm_seconds) {
  auto oracle =
      std::make_unique<DistanceOracle>(&network, OracleBackend::kHubLabels);
  const int first = HourSlot(spec.horizon.start_time);
  const int last =
      std::min(kSlotsPerDay - 1, HourSlot(spec.horizon.end_time) + 2);
  const auto t0 = std::chrono::steady_clock::now();
  // A 1-lane pool spawns no workers and runs inline, so no serial branch.
  ThreadPool pool(ThreadPool::ResolveThreadCount(spec.config.threads));
  oracle->WarmSlots(first, last, &pool);
  *warm_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return oracle;
}

CoreBundle MakeCore(const RunSpec& spec, const RoadNetwork& network,
                    const DistanceOracle& oracle, const CoreOptions& options) {
  CoreBundle bundle;
  // (An undersized fleet — fewer vehicles than shards — is warned about by
  // the sharded engine itself at the first window.)
  bundle.partitioner =
      std::make_unique<GridRegionPartitioner>(&network, spec.config.shards);
  ShardedEngineOptions sharded_options;
  sharded_options.engine.measure_wall_clock = options.measure_wall_clock;
  sharded_options.metrics = options.metrics;
  sharded_options.durability.dir = options.wal_dir;
  sharded_options.durability.snapshot_every_windows =
      spec.config.snapshot_every_windows;
  bundle.sharded = std::make_unique<ShardedDispatchEngine>(
      bundle.partitioner.get(), spec.policy, &oracle, spec.config,
      spec.policy_options, sharded_options);
  return bundle;
}

std::function<void(Seconds, std::uint64_t)> MidpointRestoreHook(
    const RunSpec& spec, ShardedDispatchEngine* core) {
  const Seconds mid = (spec.horizon.start_time + spec.horizon.end_time) / 2.0;
  return [core, mid, restored = false](Seconds now, std::uint64_t) mutable {
    if (restored || now < mid) return;
    restored = true;
    const RecoveryReport report = core->RestoreShard(0);
    std::printf(
        "restore: shard 0 at t=%.0f — snapshot %s (%llu windows), "
        "%llu/%llu records replayed, %llu windows replayed, "
        "state fingerprint %016llx\n",
        now, report.snapshot_loaded ? "loaded" : "absent",
        static_cast<unsigned long long>(report.snapshot_windows),
        static_cast<unsigned long long>(report.records_replayed),
        static_cast<unsigned long long>(report.records_valid),
        static_cast<unsigned long long>(report.windows_replayed),
        static_cast<unsigned long long>(report.state_fingerprint));
  };
}

bool VerifyFingerprint(const char* run, const char* reference,
                       std::uint64_t got, std::uint64_t want) {
  if (got != want) {
    std::fprintf(stderr,
                 "VERIFY FAILED: %s fingerprint %016llx != %s fingerprint "
                 "%016llx\n",
                 run, static_cast<unsigned long long>(got), reference,
                 static_cast<unsigned long long>(want));
    return false;
  }
  std::printf("verify: %s == %s (%016llx)\n", run, reference,
              static_cast<unsigned long long>(got));
  return true;
}

void PrintProfile(std::vector<ProfileRow> rows,
                  const obs::MetricsRegistry& registry, int threads) {
  // Ranked by seconds — the serial remainder rises to the top as --threads
  // grows.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const ProfileRow& a, const ProfileRow& b) {
                     return a.seconds > b.seconds;
                   });
  double total = 0.0;
  for (const ProfileRow& row : rows) total += row.seconds;
  std::printf("\nper-phase wall-clock profile (threads=%d):\n%-13s  %10s  "
              "%6s\n",
              threads, "phase", "seconds", "share");
  for (const ProfileRow& row : rows) {
    std::printf("%-13s  %10.3f  %5.1f%%\n", row.phase, row.seconds,
                total > 0.0 ? 100.0 * row.seconds / total : 0.0);
  }
  std::printf("%-13s  %10.3f\n", "total", total);

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  std::vector<const obs::InstrumentValue*> timings;
  std::size_t width = 9;  // "histogram"
  for (const obs::InstrumentValue& v : snapshot.instruments) {
    if (v.kind != obs::InstrumentKind::kHistogram ||
        !v.name.ends_with("_seconds")) {
      continue;
    }
    timings.push_back(&v);
    width = std::max(width, v.name.size());
  }
  if (timings.empty()) return;
  std::printf(
      "\nregistry timings (overlap the phases above; not in the total):\n"
      "%-*s  %10s  %8s\n",
      static_cast<int>(width), "histogram", "seconds", "count");
  for (const obs::InstrumentValue* v : timings) {
    std::printf("%-*s  %10.3f  %8llu\n", static_cast<int>(width),
                v->name.c_str(), v->histogram.sum,
                static_cast<unsigned long long>(v->histogram.count));
  }
}

bool FinishTrace(const std::string& path) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Disable();
  const std::size_t events = tracer.SortedEvents().size();
  if (!tracer.WriteJson(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("trace json: %s (%zu events, %llu overwritten)\n", path.c_str(),
              events, static_cast<unsigned long long>(tracer.dropped()));
  return true;
}

}  // namespace fm
