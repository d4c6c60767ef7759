// The benchmark's own test, on tiny cities (seconds to run):
//
//   1. the deterministic counts, mean XDT and failed orders repeat exactly
//      across two paced runs and across lanes {1, 2} (oracle queries only
//      across runs at one lane count: see TestCountsRepeat);
//   2. the TimingCore decorator is decision-neutral: a decorated replay
//      ends with the same order outcomes as a bare one, and its window
//      fingerprint equals the serial reference's;
//   3. the traced run's layer self times add up to window busy time within
//      kResidualBound.
//
// Run: perfbench_test [scratch-dir] (exit 0 = pass), or `python3 perfbench/run.py
// --selftest`, which also checks the command's JSON and trace output.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "citybench.h"

namespace fm::perfbench {
namespace {

// Unattributed share of window busy time (decision mirroring, metrics and
// the decorator's own bookkeeping) allowed on the tiny cities, whose
// windows are a few milliseconds long.
constexpr double kResidualBound = 0.05;

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

struct Counts {
  std::uint64_t cost_evaluations, oracle_queries, assigned, reshuffled,
      reinstatements, rejected, migrations, wal_records, failed,
      window_fingerprint, outcome_fingerprint;
  double xdt_mean_s;
  auto tie() const {
    return std::tie(cost_evaluations, oracle_queries, assigned, reshuffled,
                    reinstatements, rejected, migrations, wal_records, failed,
                    window_fingerprint, outcome_fingerprint, xdt_mean_s);
  }
  bool operator==(const Counts& o) const { return tie() == o.tie(); }
};

Counts CountsOf(const PacedRun& run) {
  const Metrics& m = run.sim.metrics;
  return {run.cost_evaluations,
          run.oracle_queries,
          run.assigned_orders,
          run.reshuffled_vehicles,
          run.reinstatements,
          run.rejected,
          run.migrations,
          run.wal_records,
          m.orders_rejected + m.orders_pending_at_end,
          run.window_fingerprint,
          run.outcome_fingerprint,
          m.MeanXdtSeconds()};
}

std::filesystem::path scratch_dir = ".bench_build/perfbench-test";

std::string WalDir(const std::string& tag) {
  return (scratch_dir / ("wal-" + tag)).string();
}

PacedRun Paced(const WorkloadSpec& spec, int lanes,
               obs::MetricsRegistry* registry = nullptr) {
  SetupTimes times;
  const std::unique_ptr<World> world = BuildWorld(spec, 3, lanes, &times);
  StackOptions options;
  options.lanes = lanes;
  options.wal_dir = WalDir(spec.name);
  options.registry = registry;
  PacedRun run;
  {
    Stack stack(*world, options);
    run = RunPaced(*world, stack, /*seconds=*/2.0, lanes);
  }
  std::filesystem::remove_all(options.wal_dir);
  return run;
}

void TestCountsRepeat(const WorkloadSpec& spec) {
  const Counts one = CountsOf(Paced(spec, 1));
  const Counts two = CountsOf(Paced(spec, 2));
  EXPECT(one.assigned > 0);
  EXPECT(one.oracle_queries > 0);
  EXPECT((one.wal_records > 0) == spec.durable_stream);
  EXPECT(CountsOf(Paced(spec, 1)) == one);
  EXPECT(CountsOf(Paced(spec, 2)) == two);
  // Oracle queries depend on the lane count as well as the event stream:
  // with K = 1 the FOODGRAPH fill shards its duration memo per lane, so
  // two lanes miss more often than one. Every other count must match.
  Counts two_as_one = two;
  two_as_one.oracle_queries = one.oracle_queries;
  EXPECT(two_as_one == one);
}

void TestDecoratorNeutral(const WorkloadSpec& spec) {
  SetupTimes times;
  const std::unique_ptr<World> world = BuildWorld(spec, 5, 2, &times);
  StackOptions options;
  options.wal_dir = WalDir(spec.name);

  SimulationResult bare;
  {
    Stack stack(*world, options);
    Simulator sim(MakeInput(*world, 2, false), stack.front());
    bare = sim.Run();
  }
  PacedRun decorated;
  {
    Stack stack(*world, options);
    decorated = RunPaced(*world, stack, 2.0, 2);
  }
  std::filesystem::remove_all(options.wal_dir);
  EXPECT(decorated.outcome_fingerprint == FingerprintOutcomes(bare.outcomes));
  EXPECT(decorated.sim.metrics.total_xdt_seconds ==
         bare.metrics.total_xdt_seconds);
  const Fingerprints reference = RunReference(*world);
  EXPECT(decorated.window_fingerprint == reference.windows);
  EXPECT(decorated.outcome_fingerprint == reference.outcomes);
}

void TestResidual(const WorkloadSpec& spec) {
  obs::MetricsRegistry registry;
  const PacedRun run = Paced(spec, 2, &registry);
  const LayerTimes layers = AttributeLayers(run);
  const double share = layers.residual / layers.busy;
  std::printf("%s: busy %.1f ms, residual %.3f ms (%.2f%%)\n",
              spec.name.c_str(), 1e3 * layers.busy, 1e3 * layers.residual,
              100.0 * share);
  EXPECT(layers.busy > 0);
  EXPECT(std::fabs(share) <= kResidualBound);
  for (const auto& [layer, seconds] : layers.self) EXPECT(seconds >= -1e-6);
  EXPECT(run.lag_ms.size() == run.windows.size());
  EXPECT(!run.assign_ms.empty());
  EXPECT(run.assign_ms.size() <= run.sim.metrics.orders_total);
}

}  // namespace
}  // namespace fm::perfbench

int main(int argc, char** argv) {
  using namespace fm::perfbench;
  if (argc > 1) scratch_dir = argv[1];
  for (const char* name : {"tiny", "tiny-sharded"}) {
    const WorkloadSpec spec = *FindWorkload(name);
    TestCountsRepeat(spec);
    TestDecoratorNeutral(spec);
    TestResidual(spec);
  }
  if (failures == 0) {
    std::printf("perfbench_test: PASS\n");
  } else {
    std::printf("perfbench_test: %d FAILED\n", failures);
  }
  return failures == 0 ? 0 : 1;
}
