// Shared harness for the figure/table reproduction benches.
//
// Each bench binary declares which paper artifact it regenerates, builds
// workloads through a cached Lab (so a city's network and hub-label index
// are constructed once per process), runs the simulator for each
// configuration, and prints the figure's rows/series as an aligned table.
#ifndef FOODMATCH_BENCH_SUPPORT_H_
#define FOODMATCH_BENCH_SUPPORT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "foodmatch/foodmatch.h"

namespace fm::bench {

// Which assignment strategy to run.
enum class PolicyKind {
  kGreedy,
  kKM,        // vanilla Kuhn–Munkres
  kBR,        // KM + batching & reshuffling
  kBRBFS,     // + best-first sparsification
  kFoodMatch, // + angular distance (all options)
  kReyes,
};

std::string PolicyName(PolicyKind kind);

// The PolicyRegistry key for a kind ("foodmatch", "km", "br", "br-bfs",
// "greedy", "reyes"). All bench policies are built through the registry.
std::string RegistryPolicyName(PolicyKind kind);

struct RunSpec {
  CityProfile profile;
  std::uint64_t day = 0;
  // Order-intake horizon. The default covers the late-morning ramp, the
  // lunch peak, and the afternoon trough — the slots where the paper's
  // effects are visible — at a laptop-friendly cost.
  Seconds start_time = 10.0 * 3600.0;
  Seconds end_time = 15.0 * 3600.0;
  double fleet_fraction = 1.0;
  PolicyKind kind = PolicyKind::kFoodMatch;
  // Overrides applied on top of the profile defaults. accumulation_window
  // <= 0 means "use the profile's default ∆".
  Config config = DefaultConfig();
  // Extra matching options for ablations/sweeps (fixed_k etc.). Only
  // consulted for matching-based kinds; option flags implied by `kind`
  // always win.
  int fixed_k = 0;
  bool measure_wall_clock = true;

  static Config DefaultConfig() {
    Config c;
    c.accumulation_window = -1.0;  // sentinel: profile default
    return c;
  }
};

// Caches workloads (keyed by profile/day/horizon) and warmed hub-label
// oracles (keyed by profile) across runs within one bench process.
class Lab {
 public:
  struct Entry {
    Workload workload;
    // Ground-truth oracle: simulator kinematics and metrics.
    std::unique_ptr<DistanceOracle> oracle;
    // Oracle the *policies* decide with. Same as `oracle` except on
    // haversine-only profiles (GrubHub), where the paper notes FOODMATCH has
    // no road network and falls back to spatial distance (§V-C).
    std::unique_ptr<DistanceOracle> policy_oracle;
  };

  // Returns the cached workload+oracle for the spec's profile/day/horizon,
  // generating and warming on first use.
  const Entry& Get(const RunSpec& spec);

  // Runs the spec end to end.
  SimulationResult Run(const RunSpec& spec);

  // Runs with a window observer attached (for instrumentation benches).
  SimulationResult RunObserved(const RunSpec& spec, WindowObserver observer);

 private:
  std::map<std::string, std::unique_ptr<Entry>> cache_;
};

// Standard bench profiles: Table II cities scaled so each figure
// regenerates in minutes on a single core. City A keeps the finer scale
// because it is small to begin with.
inline CityProfile BenchCityA() { return CityAProfile(40.0); }
inline CityProfile BenchCityB() { return CityBProfile(80.0); }
inline CityProfile BenchCityC() { return CityCProfile(80.0); }
inline CityProfile BenchGrubhub() { return GrubhubProfile(4.0); }

// Builds the policy for a spec. The policy borrows `entry`.
std::unique_ptr<AssignmentPolicy> MakePolicy(const RunSpec& spec,
                                             const Lab::Entry& entry,
                                             const Config& config);

// The effective config for a spec (profile ∆ applied if the sentinel is
// set, validated).
Config EffectiveConfig(const RunSpec& spec);

// Prints the standard bench banner: experiment id + what the paper shows.
void PrintBanner(const std::string& experiment, const std::string& claim);

// Number formatting helpers for table cells.
std::string Fmt(double value, int precision = 2);
std::string FmtPercent(double value);

// Orders of `w` placed within hour slot `slot`.
std::size_t CountOrdersInSlot(const Workload& w, int slot);

// ---- Per-phase wall-clock reporting (BENCH_fig_wallclock.json) ----
//
// Figure benches record how long each phase of the batch-assignment pipeline
// (batching → FOODGRAPH → Kuhn–Munkres → route rebuild) took, per policy and
// thread count, into a small JSON file. A committed run anchors the repo's
// end-to-end performance trajectory the same way BENCH_baseline.json anchors
// the substrate micro-costs; CI uploads the file as an artifact per commit.

struct WallClockEntry {
  std::string label;       // e.g. "CityB/FoodMatch"
  int threads = 1;         // Config::threads the run used
  std::uint64_t windows = 0;
  double batching_seconds = 0.0;
  double graph_seconds = 0.0;
  double matching_seconds = 0.0;
  double rebuild_seconds = 0.0;
  double warm_seconds = 0.0;      // hub-label warm-up (warm-up rows only)
  double decision_seconds = 0.0;  // total policy decision wall clock
  // The warmed oracle's index size (warm-up rows only; see
  // DistanceOracle::LabelEntries and IndexBytes).
  std::size_t label_entries = 0;
  std::size_t index_bytes = 0;
};

// Collects entries and serializes them as BENCH_fig_wallclock.json.
class WallClockReport {
 public:
  // `bench` names the producing binary (e.g. "bench_fig6fgh_scalability").
  explicit WallClockReport(std::string bench);

  // Records one run's phase totals from its simulation metrics.
  void Add(const std::string& label, int threads, const Metrics& metrics);

  // Records a warm-up-only entry — the hub-label warm-up sweep, measured
  // outside a simulation — with the size of the index `oracle` holds.
  void AddWarmUp(const std::string& label, int threads, double warm_seconds,
                 const DistanceOracle& oracle);

  const std::vector<WallClockEntry>& entries() const { return entries_; }

  // Writes the report (schema "foodmatch-fig-wallclock-v4"). Returns false
  // on IO error.
  bool Write(const std::string& path) const;

 private:
  std::string bench_;
  std::vector<WallClockEntry> entries_;
};

// Improvement of `ours` over `baseline` in percent (Eq. 9). For
// higher-is-better metrics pass `higher_is_better = true`.
double ImprovementPercent(double baseline, double ours,
                          bool higher_is_better = false);

// ---- Serving-gate helpers ----
//
// Event replay and the WindowResult fingerprint both live in the library
// (serving/event_source.h; fm::FingerprintWindowResults in
// core/fingerprint.h) so the test-side gates, the bench-side gates, and
// the tools all hash the same scheme — unqualified calls here resolve to
// the fm:: function through the enclosing namespace.

// The self-description block every bench JSON embeds (core count + CMake
// build type): committed anchors must say what machine and build produced
// them — ROADMAP's 1-core-builder caveat, made machine-readable.
std::string MachineJson();

// ---- Shared bench-JSON document ----
//
// Every committed BENCH_*.json anchor (except google-benchmark's own
// BENCH_baseline.json) is one document of this shape:
//
//   { "schema": ..., "bench": ..., "hardware_threads": N,
//     "machine": {...}, <extra fields...>, "entries": [...] }
//
// BenchJsonDoc renders the header once, identically, for every writer —
// before it existed each bench hand-rolled the header and they drifted
// (some emitted top-level hardware_threads, some didn't). Entry objects
// and extra field values are passed pre-rendered (StrFormat'd) JSON; the
// document owns only the envelope. tools/check_bench_regression.py leans
// on this uniformity to diff regenerated anchors against committed ones.
class BenchJsonDoc {
 public:
  // `schema` is the document's versioned schema id ("foodmatch-...-vN"),
  // `bench` the producing binary.
  BenchJsonDoc(std::string schema, std::string bench);

  // Adds one top-level field after "machine"; `raw_json` is the rendered
  // value (object, array, number, or quoted string). Emitted in call order.
  void AddField(const std::string& key, const std::string& raw_json);

  // Appends one pre-rendered JSON object to the "entries" array.
  void AddEntry(std::string raw_object);

  // Writes the document. Returns false on IO error.
  bool Write(const std::string& path) const;

 private:
  std::string schema_;
  std::string bench_;
  std::vector<std::pair<std::string, std::string>> fields_;
  std::vector<std::string> entries_;
};

}  // namespace fm::bench

#endif  // FOODMATCH_BENCH_SUPPORT_H_
