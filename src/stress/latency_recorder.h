// Tail-latency harness: exact per-window and per-order quantiles for the
// two latencies production dispatch lives and dies by —
//
//   decision latency   wall-clock seconds one WindowClosed's assignment
//                      decision took (WindowResult::decision_seconds; the
//                      §V-E overflow measurement), and
//   order latency      intake→decision: producer-submit to window-close
//                      per order (StreamReplayStats::order_latency_seconds
//                      on the streaming path, fmserve's own clocking on
//                      the serving path).
//
// Samples are kept exact (no sketches — stress horizons are bounded, and
// a p99.9 from a digest is not an anchor) and summarized with the shared
// nearest-rank quantiles in common/stats.h, so fmserve (with or without
// --scenario) and bench_stress report the same p50/p95/p99/p99.9
// definition.
// Totals also flow into the existing PhaseProfile plumbing under
// stress.decision / stress.order_latency so --profile output shows the
// stress share next to the pipeline phases.
#ifndef FOODMATCH_STRESS_LATENCY_RECORDER_H_
#define FOODMATCH_STRESS_LATENCY_RECORDER_H_

#include <string>
#include <vector>

#include "common/profiler.h"
#include "common/stats.h"
#include "core/dispatch_engine.h"

namespace fm {

class LatencyRecorder {
 public:
  void RecordDecision(double seconds) { decision_.push_back(seconds); }
  void RecordOrderLatency(double seconds) { order_.push_back(seconds); }

  // Records every window's decision_seconds (one sample per window).
  void RecordWindows(const std::vector<WindowResult>& results);

  // Bulk intake→decision samples (StreamReplayStats::order_latency_seconds).
  void RecordOrderLatencies(const std::vector<double>& seconds);

  std::size_t decision_samples() const { return decision_.size(); }
  std::size_t order_samples() const { return order_.size(); }

  TailSummary DecisionTails() const { return SummarizeTails(decision_); }
  TailSummary OrderTails() const { return SummarizeTails(order_); }

  // Adds the sample totals to `profile` (stress.decision /
  // stress.order_latency, one call per sample) — no-op on null.
  void FlushToProfile(PhaseProfile* profile) const;

 private:
  std::vector<double> decision_;
  std::vector<double> order_;
};

// One-line JSON object for a TailSummary, milliseconds with fixed
// precision: {"count": N, "mean_ms": …, "max_ms": …, "p50_ms": …,
// "p95_ms": …, "p99_ms": …, "p999_ms": …}. Shared by fmserve and
// bench_stress so the anchors stay diffable.
std::string TailSummaryJson(const TailSummary& tails);

}  // namespace fm

#endif  // FOODMATCH_STRESS_LATENCY_RECORDER_H_
