// Measures the incremental FOODGRAPH maintenance (core/edge_cache.h) against
// the from-scratch build it replaces, and hard-gates its bit-identity.
//
// Built from scratch, `graph.build` is ~85–93% of FoodMatch/KM decision time
// (this bench's scratch rows); the EdgeCache attacks exactly that share by
// replaying recorded best-first search footprints and serving SP legs from
// per-shard duration memos. This bench runs each city/policy twice —
// incremental off, then on — and
//
//   1. FAILS (exit 1) unless the two SimulationResults are bit-identical,
//      and again unless the 4-lane incremental run matches the 1-lane one —
//      the cache may only ever change the clock, never a number;
//   2. reports the graph-phase share before/after plus the cache's replay
//      and memo counters, written to BENCH_incremental.json (--out=PATH) so
//      CI archives the trajectory of the graph share next to
//      BENCH_fig_wallclock.json. `footprint_replays` / `footprint_rebuilds`
//      and the builds' `nodes_expanded` / `mcost_evaluations` are pure
//      functions of the event stream (equal for 1 and 4 lanes), and
//      tools/check_bench_regression.py holds them to the anchor exactly. So
//      it does the cache's resident state at run end, `memo_entries` (summed
//      over shards) and `footprint_visits`, which are deterministic for a
//      given lane count: any growth fails the check.
//
// Comparability with BENCH_fig_wallclock.json: the runs use the same
// 11h–14h horizon as the bench_fig6fgh rows, and `graph_share` is
// graph-phase seconds over the sum of the four Metrics::phase_*_seconds
// fields (which includes the route rebuilds), not over
// decision_seconds_total. Each case starts with one untimed warm-up run so
// the from-scratch baseline is not billed for the lazily warmed oracle
// caches the later passes then get for free.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/support.h"
#include "common/flags.h"
#include "common/strings.h"
#include "core/edge_cache.h"
#include "core/matching_policy.h"

namespace fm::bench {
namespace {

// FNV-1a over everything deterministic in a SimulationResult (the same field
// walk as the engine-equivalence goldens in tests/dispatch_engine_test.cc).
// Wall-clock-derived fields (overflow counts, decision seconds) are
// deliberately excluded: the runs here measure time, and time is the one
// thing allowed to differ.
std::uint64_t HashU64(std::uint64_t h, std::uint64_t v) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(&v);
  for (std::size_t i = 0; i < sizeof(v); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
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

struct RunOutcome {
  SimulationResult result;
  std::uint64_t fingerprint = 0;
  EdgeCacheStats cache;  // zeros for from-scratch runs
  bool has_cache = false;
};

// Lab::Run keeps its policy private; this clone of its run loop retains the
// policy so the EdgeCache counters survive the simulation.
RunOutcome RunSpecOnce(Lab& lab, const RunSpec& spec) {
  const Lab::Entry& entry = lab.Get(spec);
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
  RunOutcome out;
  out.result = sim.Run();
  out.fingerprint = FingerprintResult(out.result);
  if (const auto* matching = dynamic_cast<const MatchingPolicy*>(policy.get());
      matching != nullptr && matching->edge_cache() != nullptr) {
    out.cache = matching->edge_cache()->AggregatedStats();
    out.has_cache = true;
  }
  return out;
}

struct ReportEntry {
  std::string label;
  std::string mode;  // "scratch" or "incremental"
  int threads = 1;
  std::uint64_t windows = 0;
  double graph_seconds = 0.0;    // Metrics::phase_graph_seconds
  double profile_seconds = 0.0;  // sum of the four phase_*_seconds fields
  double decision_seconds = 0.0;
  double graph_share = 0.0;      // graph_seconds / profile_seconds
  double graph_speedup = 1.0;    // scratch graph seconds / this run's
  std::uint64_t fingerprint = 0;
  EdgeCacheStats cache;
  bool has_cache = false;
};

bool WriteReport(const std::string& path,
                 const std::vector<ReportEntry>& entries) {
  BenchJsonDoc doc("foodmatch-incremental-graph-v1",
                   "bench_incremental_graph");
  for (const ReportEntry& e : entries) {
    std::string entry = StrFormat(
        "{\n"
        "      \"label\": \"%s\", \"mode\": \"%s\", \"threads\": %d,\n"
        "      \"windows\": %llu, \"graph_seconds\": %.6f,\n"
        "      \"profile_seconds\": %.6f,\n"
        "      \"decision_seconds\": %.6f, \"graph_share\": %.4f,\n"
        "      \"graph_speedup\": %.3f,\n"
        "      \"fingerprint\": \"%016llx\"",
        e.label.c_str(), e.mode.c_str(), e.threads,
        static_cast<unsigned long long>(e.windows), e.graph_seconds,
        e.profile_seconds, e.decision_seconds, e.graph_share, e.graph_speedup,
        static_cast<unsigned long long>(e.fingerprint));
    if (e.has_cache) {
      const EdgeCacheStats& c = e.cache;
      entry += StrFormat(
          ",\n      \"cache\": {\n"
          "        \"footprint_replays\": %llu,\n"
          "        \"footprint_rebuilds\": %llu,\n"
          "        \"retirements\": %llu,\n"
          "        \"duration_memo_hits\": %llu,\n"
          "        \"duration_memo_misses\": %llu,\n"
          "        \"nodes_expanded\": %llu,\n"
          "        \"mcost_evaluations\": %llu,\n"
          "        \"memo_entries\": %llu,\n"
          "        \"footprint_visits\": %llu\n"
          "      }",
          static_cast<unsigned long long>(c.footprint_replays),
          static_cast<unsigned long long>(c.footprint_rebuilds),
          static_cast<unsigned long long>(c.retirements),
          static_cast<unsigned long long>(c.duration_memo_hits),
          static_cast<unsigned long long>(c.duration_memo_misses),
          static_cast<unsigned long long>(c.nodes_expanded),
          static_cast<unsigned long long>(c.mcost_evaluations),
          static_cast<unsigned long long>(c.memo_entries),
          static_cast<unsigned long long>(c.footprint_visits));
    }
    entry += "\n    }";
    doc.AddEntry(std::move(entry));
  }
  return doc.Write(path);
}

int Main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    return 2;
  }
  const std::string out_path = flags.GetString("out", "BENCH_incremental.json");
  PrintBanner(
      "Incremental FOODGRAPH maintenance — graph share & bit-identity gate",
      "graph.build dominates decision time; the EdgeCache must cut it "
      "without moving a single number");

  struct Case {
    CityProfile profile;
    PolicyKind kind;
  };
  const std::vector<Case> cases = {
      {BenchCityB(), PolicyKind::kFoodMatch},
      {BenchCityB(), PolicyKind::kKM},
      {BenchCityC(), PolicyKind::kFoodMatch},
  };

  Lab lab;
  std::vector<ReportEntry> entries;
  TablePrinter table({"City/Policy", "mode", "threads", "graph(s)",
                      "decision(s)", "graph-share", "graph-speedup",
                      "memo-hit%", "replays"});
  for (const Case& c : cases) {
    const std::string label = c.profile.name + "/" + PolicyName(c.kind);
    RunSpec spec;
    spec.profile = c.profile;
    spec.kind = c.kind;
    // The exact horizon of the BENCH_fig_wallclock.json rows, so the shares
    // below are comparable to the committed graph_s anchor.
    spec.start_time = 11.0 * 3600.0;
    spec.end_time = 14.0 * 3600.0;
    spec.measure_wall_clock = true;

    // Pass 0 (untimed): warm the lab's shared oracle caches so the scratch
    // baseline is not billed for one-time lazy warm-up the later passes
    // would inherit for free.
    spec.config.incremental_graph = false;
    spec.config.threads = 1;
    (void)RunSpecOnce(lab, spec);

    // Pass 1: from-scratch reference (the seed path).
    const RunOutcome scratch = RunSpecOnce(lab, spec);

    // Pass 2: incremental, 1 lane. Pass 3: incremental, 4 lanes.
    spec.config.incremental_graph = true;
    const RunOutcome inc1 = RunSpecOnce(lab, spec);
    spec.config.threads = 4;
    const RunOutcome inc4 = RunSpecOnce(lab, spec);

    // The hard gate: identical results, or the cache is wrong.
    if (inc1.fingerprint != scratch.fingerprint ||
        inc4.fingerprint != scratch.fingerprint) {
      std::fprintf(stderr,
                   "BIT-IDENTITY VIOLATION (%s): scratch %016llx, "
                   "incremental@1 %016llx, incremental@4 %016llx\n",
                   label.c_str(),
                   static_cast<unsigned long long>(scratch.fingerprint),
                   static_cast<unsigned long long>(inc1.fingerprint),
                   static_cast<unsigned long long>(inc4.fingerprint));
      return 1;
    }

    const auto add = [&](const char* mode, int threads, const RunOutcome& run,
                         double scratch_graph) {
      const Metrics& m = run.result.metrics;
      ReportEntry e;
      e.label = label;
      e.mode = mode;
      e.threads = threads;
      e.windows = m.windows;
      e.graph_seconds = m.phase_graph_seconds;
      e.profile_seconds = m.phase_batching_seconds + m.phase_graph_seconds +
                          m.phase_matching_seconds + m.phase_rebuild_seconds;
      e.decision_seconds = m.decision_seconds_total;
      e.graph_share =
          e.profile_seconds > 0.0 ? e.graph_seconds / e.profile_seconds : 0.0;
      e.graph_speedup =
          e.graph_seconds > 0.0 ? scratch_graph / e.graph_seconds : 1.0;
      e.fingerprint = run.fingerprint;
      e.cache = run.cache;
      e.has_cache = run.has_cache;
      const std::uint64_t lookups =
          e.cache.duration_memo_hits + e.cache.duration_memo_misses;
      table.AddRow(
          {label, mode, Fmt(threads, 0), Fmt(e.graph_seconds, 3),
           Fmt(e.decision_seconds, 3), FmtPercent(100.0 * e.graph_share),
           Fmt(e.graph_speedup, 2) + "x",
           run.has_cache && lookups > 0
               ? FmtPercent(100.0 *
                            static_cast<double>(e.cache.duration_memo_hits) /
                            static_cast<double>(lookups))
               : "-",
           run.has_cache ? Fmt(static_cast<double>(e.cache.footprint_replays),
                               0)
                         : "-"});
      entries.push_back(std::move(e));
    };
    const double scratch_graph =
        scratch.result.metrics.phase_graph_seconds;
    add("scratch", 1, scratch, scratch_graph);
    add("incremental", 1, inc1, scratch_graph);
    add("incremental", 4, inc4, scratch_graph);
    std::printf("%s: bit-identity gate passed (%016llx)\n", label.c_str(),
                static_cast<unsigned long long>(scratch.fingerprint));
  }
  std::printf("\n");
  table.Print();

  if (!WriteReport(out_path, entries)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nincremental-graph report: %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace fm::bench

int main(int argc, char** argv) { return fm::bench::Main(argc, argv); }
