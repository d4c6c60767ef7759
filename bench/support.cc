#include "bench/support.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "common/strings.h"

namespace fm::bench {

std::string PolicyName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kGreedy:
      return "Greedy";
    case PolicyKind::kKM:
      return "KM";
    case PolicyKind::kBR:
      return "B&R";
    case PolicyKind::kBRBFS:
      return "B&R+BFS";
    case PolicyKind::kFoodMatch:
      return "FoodMatch";
    case PolicyKind::kReyes:
      return "Reyes";
  }
  return "?";
}

Config EffectiveConfig(const RunSpec& spec) {
  Config config = spec.config;
  if (config.accumulation_window <= 0.0) {
    config.accumulation_window = spec.profile.default_delta;
  }
  config.Validate();
  return config;
}

const Lab::Entry& Lab::Get(const RunSpec& spec) {
  const std::string key =
      StrFormat("%s/day%llu/%d-%d", spec.profile.name.c_str(),
                static_cast<unsigned long long>(spec.day),
                static_cast<int>(spec.start_time),
                static_cast<int>(spec.end_time));
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    auto entry = std::make_unique<Entry>();
    WorkloadOptions options;
    options.start_time = spec.start_time;
    options.end_time = spec.end_time;
    options.day = spec.day;
    entry->workload = GenerateWorkload(spec.profile, options);
    // Hub-label oracle warmed over the simulated horizon (plus drain): with
    // the nested-dissection hub ordering, per-slot construction is well
    // under a second per thousand nodes, and queries are sub-microsecond.
    // Per-slot builds are independent, so the warm-up shards across the
    // spec's --threads lanes (a scoped pool; the policy spawns its own).
    entry->oracle = std::make_unique<DistanceOracle>(
        &entry->workload.network, OracleBackend::kHubLabels);
    const int first = HourSlot(spec.start_time);
    const int last = std::min(kSlotsPerDay - 1, HourSlot(spec.end_time) + 2);
    ThreadPool warm_pool(ThreadPool::ResolveThreadCount(spec.config.threads));
    entry->oracle->WarmSlots(first, last, &warm_pool);
    if (spec.profile.haversine_only) {
      entry->policy_oracle = std::make_unique<DistanceOracle>(
          &entry->workload.network, OracleBackend::kHaversine);
    }
    it = cache_.emplace(key, std::move(entry)).first;
  }
  return *it->second;
}

std::string RegistryPolicyName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kGreedy:
      return "greedy";
    case PolicyKind::kKM:
      return "km";
    case PolicyKind::kBR:
      return "br";
    case PolicyKind::kBRBFS:
      return "br-bfs";
    case PolicyKind::kFoodMatch:
      return "foodmatch";
    case PolicyKind::kReyes:
      return "reyes";
  }
  return "?";
}

std::unique_ptr<AssignmentPolicy> MakePolicy(const RunSpec& spec,
                                             const Lab::Entry& entry,
                                             const Config& config) {
  const DistanceOracle* oracle = entry.policy_oracle != nullptr
                                     ? entry.policy_oracle.get()
                                     : entry.oracle.get();
  PolicyOptions options;
  options.fixed_k = spec.fixed_k;  // only honored by the sparsified kinds
  return PolicyRegistry::Global().Create(RegistryPolicyName(spec.kind), oracle,
                                         config, options);
}

SimulationResult Lab::Run(const RunSpec& spec) {
  return RunObserved(spec, nullptr);
}

SimulationResult Lab::RunObserved(const RunSpec& spec,
                                  WindowObserver observer) {
  const Entry& entry = Get(spec);
  const Config config = EffectiveConfig(spec);
  std::unique_ptr<AssignmentPolicy> policy = MakePolicy(spec, entry, config);

  SimulationInput input;
  input.network = &entry.workload.network;
  input.oracle = entry.oracle.get();
  input.config = config;
  input.fleet = SubsampleFleet(entry.workload.fleet, spec.fleet_fraction);
  input.orders = entry.workload.orders;
  input.start_time = spec.start_time;
  input.end_time = spec.end_time;
  input.drain_time = 7200.0;
  input.measure_wall_clock = spec.measure_wall_clock;

  Simulator sim(std::move(input), policy.get());
  if (observer) sim.set_window_observer(std::move(observer));
  return sim.Run();
}

void PrintBanner(const std::string& experiment, const std::string& claim) {
  std::printf("==================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper: %s\n", claim.c_str());
  std::printf("==================================================\n");
}

std::string Fmt(double value, int precision) {
  return StrFormat("%.*f", precision, value);
}

std::string FmtPercent(double value) {
  return StrFormat("%.1f%%", value);
}

std::size_t CountOrdersInSlot(const Workload& w, int slot) {
  std::size_t count = 0;
  for (const Order& o : w.orders) {
    if (HourSlot(o.placed_at) == slot) ++count;
  }
  return count;
}

double ImprovementPercent(double baseline, double ours,
                          bool higher_is_better) {
  if (baseline == 0.0) return 0.0;
  const double delta = higher_is_better ? ours - baseline : baseline - ours;
  return 100.0 * delta / std::abs(baseline);
}

std::string MachineJson() {
#ifdef FOODMATCH_BUILD_TYPE
  const char* build_type = FOODMATCH_BUILD_TYPE;
#else
  const char* build_type = "";
#endif
  return StrFormat(
      "{\"hardware_threads\": %u, \"build_type\": \"%s\"}",
      std::thread::hardware_concurrency(),
      build_type[0] != '\0' ? build_type : "unspecified");
}

BenchJsonDoc::BenchJsonDoc(std::string schema, std::string bench)
    : schema_(std::move(schema)), bench_(std::move(bench)) {}

void BenchJsonDoc::AddField(const std::string& key,
                            const std::string& raw_json) {
  fields_.emplace_back(key, raw_json);
}

void BenchJsonDoc::AddEntry(std::string raw_object) {
  entries_.push_back(std::move(raw_object));
}

bool BenchJsonDoc::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"%s\",\n"
               "  \"bench\": \"%s\",\n"
               "  \"hardware_threads\": %u,\n"
               "  \"machine\": %s,\n",
               schema_.c_str(), bench_.c_str(),
               std::thread::hardware_concurrency(), MachineJson().c_str());
  for (const auto& [key, raw] : fields_) {
    std::fprintf(f, "  \"%s\": %s,\n", key.c_str(), raw.c_str());
  }
  std::fprintf(f, "  \"entries\": [");
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::fprintf(f, "%s\n    %s", i == 0 ? "" : ",", entries_[i].c_str());
  }
  std::fprintf(f, "\n  ]\n}\n");
  return std::fclose(f) == 0;
}

WallClockReport::WallClockReport(std::string bench)
    : bench_(std::move(bench)) {}

void WallClockReport::Add(const std::string& label, int threads,
                          const Metrics& metrics) {
  WallClockEntry e;
  e.label = label;
  e.threads = threads;
  e.windows = metrics.windows;
  e.batching_seconds = metrics.phase_batching_seconds;
  e.graph_seconds = metrics.phase_graph_seconds;
  e.matching_seconds = metrics.phase_matching_seconds;
  e.rebuild_seconds = metrics.phase_rebuild_seconds;
  e.decision_seconds = metrics.decision_seconds_total;
  entries_.push_back(std::move(e));
}

void WallClockReport::AddWarmUp(const std::string& label, int threads,
                                double warm_seconds,
                                const DistanceOracle& oracle) {
  WallClockEntry e;
  e.label = label;
  e.threads = threads;
  e.warm_seconds = warm_seconds;
  e.label_entries = oracle.LabelEntries();
  e.index_bytes = oracle.IndexBytes();
  entries_.push_back(std::move(e));
}

bool WallClockReport::Write(const std::string& path) const {
  BenchJsonDoc doc("foodmatch-fig-wallclock-v4", bench_);
  for (const WallClockEntry& e : entries_) {
    // Only warm-up rows hold an index.
    const std::string index =
        e.index_bytes == 0
            ? ""
            : StrFormat(",\n     \"label_entries\": %zu, \"index_bytes\": %zu",
                        e.label_entries, e.index_bytes);
    doc.AddEntry(StrFormat(
        "{\"label\": \"%s\", \"threads\": %d, \"windows\": %llu,\n"
        "     \"phases\": {\"batching_s\": %.6f, \"graph_s\": %.6f, "
        "\"matching_s\": %.6f, \"rebuild_s\": %.6f, \"warm_s\": %.6f},\n"
        "     \"decision_total_s\": %.6f%s}",
        e.label.c_str(), e.threads,
        static_cast<unsigned long long>(e.windows), e.batching_seconds,
        e.graph_seconds, e.matching_seconds, e.rebuild_seconds,
        e.warm_seconds, e.decision_seconds, index.c_str()));
  }
  return doc.Write(path);
}

}  // namespace fm::bench
