// Driver core shared by the fmsim and fmserve tools.
//
// Both tools run the same loop — a city workload, a warmed distance oracle
// and a dispatch core (one engine, or K region shards with an optional
// WAL) — and differ only in how events reach the core: fmsim replays a day
// through the simulator, fmserve streams an event log through the intake
// rings. This file holds everything else: one flag table that drives both
// --help and the accepted-flag set, one parser for the shared run flags,
// the oracle warm-up, the core builder, the shard-0 restore hook, the
// fingerprint check, the --profile printer and the trace writer.
#ifndef FOODMATCH_TOOLS_RUN_SPEC_H_
#define FOODMATCH_TOOLS_RUN_SPEC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/types.h"
#include "core/policy_registry.h"
#include "gen/profiles.h"
#include "gen/workload.h"
#include "graph/distance_oracle.h"
#include "graph/road_network.h"
#include "model/config.h"
#include "obs/metrics_registry.h"
#include "serving/region_partitioner.h"
#include "serving/sharded_dispatch_engine.h"

namespace fm {

// One row of a tool's flag table. `value` names the flag's argument
// ("PATH", "N", ...) and is empty for a bare switch; `help` may span lines.
struct FlagDoc {
  std::string name;
  std::string value;
  std::string help;
};

// The shared run flags, parsed once.
struct RunSpec {
  FlagParser flags;  // every flag as given; tools read their own from here
  CityProfile city;  // --city at --scale
  double scale = 80.0;
  WorkloadOptions horizon;  // --start, --end, --day
  double fleet = 1.0;
  Config config;  // --delta/--eta/--gamma/--threads/--shards/intake/WAL
  std::string policy;
  PolicyOptions policy_options;  // --k
  std::string wal_dir;
  std::string trace_out;
  bool profile = false;
};

// Parses argv against the shared flags followed by `tool_flags`. On --help
// prints the table under `title` and exits 0. Exits 2 with an error naming
// the valid choices on an unknown flag, a stray argument, a value given to
// a switch, an unknown --city or --policy, or --snapshot-every without
// --wal-dir.
RunSpec ParseRunSpec(int argc, char** argv, const std::string& title,
                     const std::vector<FlagDoc>& tool_flags);

// Prints "error: <message>" and exits 2: the answer to any flag misuse.
[[noreturn]] void UsageError(const std::string& message);

// Exits 2 unless `value` is one of `choices` (`flag` names it in the error).
void RequireChoice(const std::string& flag, const std::string& value,
                   const std::vector<std::string>& choices);

// Exits 2 when `flag` is given without `needed`, which it does nothing
// without.
void RequireFlag(const RunSpec& spec, const std::string& flag,
                 const std::string& needed);

// Exits 2 when `flag` is given together with `mode`, which would ignore it.
void RejectFlagWith(const RunSpec& spec, const std::string& flag,
                    const std::string& mode);

// Builds a hub-label oracle over `network` and warms every slot the horizon
// queries (plus 2 h of drain) across --threads lanes — the warmed indices
// are identical for any lane count — storing the warm-up's wall clock in
// `warm_seconds`.
std::unique_ptr<DistanceOracle> WarmOracle(const RunSpec& spec,
                                           const RoadNetwork& network,
                                           double* warm_seconds);

struct CoreOptions {
  // Forwarded to DispatchEngineOptions; match the driver's own setting.
  // Window fingerprints exclude decision time, so true is safe to verify.
  bool measure_wall_clock = true;
  // Non-empty: per-shard WAL + snapshots here.
  std::string wal_dir;
  // Serving, oracle and EdgeCache instruments (ShardedEngineOptions).
  obs::MetricsRegistry* metrics = nullptr;
};

// A dispatch core plus the partitioner that must stay alive behind it.
struct CoreBundle {
  std::unique_ptr<GridRegionPartitioner> partitioner;
  std::unique_ptr<ShardedDispatchEngine> sharded;
};

// The sharded router over --shards region engines, each building its
// policy by name through the registry. K=1 is a pass-through, bit-identical
// to a plain DispatchEngine (sharded_engine_test, bench_sharded_serving).
CoreBundle MakeCore(const RunSpec& spec, const RoadNetwork& network,
                    const DistanceOracle& oracle,
                    const CoreOptions& options = {});

// A window-close hook that, once, at the first window at or past the
// horizon midpoint, kills shard 0 of `core`, restores it from snapshot +
// WAL and prints the recovery report. Install it where the core is
// quiescent (after a window is fully applied).
std::function<void(Seconds now, std::uint64_t window)> MidpointRestoreHook(
    const RunSpec& spec, ShardedDispatchEngine* core);

// Prints "verify: <run> == <reference>" when the fingerprints match and
// returns true; otherwise reports the mismatch and returns false.
bool VerifyFingerprint(const char* run, const char* reference,
                       std::uint64_t got, std::uint64_t want);

// One row of the --profile phase table: a phase name and its total wall
// clock over the run.
struct ProfileRow {
  const char* phase;
  double seconds;
};

// Prints --profile: `rows` (oracle.warm, the decision phases and, for a
// simulated run, rebuild.plans — none overlap) ranked by seconds with their
// share of the total, then every *_seconds histogram on `registry` (sum,
// count) in a separate block left out of the total — those regions contain
// or overlap the phases.
void PrintProfile(std::vector<ProfileRow> rows,
                  const obs::MetricsRegistry& registry, int threads);

// Stops the global tracer and writes its events as Chrome trace-event
// JSON. Returns false (after reporting) on IO error.
bool FinishTrace(const std::string& path);

}  // namespace fm

#endif  // FOODMATCH_TOOLS_RUN_SPEC_H_
