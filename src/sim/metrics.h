// Evaluation metrics (paper §V-B):
//   XDT   — extra delivery time, the objective of Problem 1;
//   O/Km  — orders per kilometer, Σ k·D_k / Σ D_k over per-load distances;
//   WT    — driver waiting time at restaurants;
//   rejection rate, overflown windows, and decision running times.
#ifndef FOODMATCH_SIM_METRICS_H_
#define FOODMATCH_SIM_METRICS_H_

#include <array>
#include <cstdint>
#include <string>

#include "common/time.h"
#include "common/types.h"

namespace fm {

// Per-hour-slot aggregates used by the timeslot figures (6(a), 6(g), 6(i–k)).
struct SlotMetrics {
  std::uint64_t orders_placed = 0;
  std::uint64_t orders_delivered = 0;
  double xdt_seconds = 0.0;       // attributed to the slot the order was placed
  double wait_seconds = 0.0;      // attributed to the slot the wait ended
  double distance_m = 0.0;        // attributed to the slot of traversal
  double load_distance_m = 0.0;   // Σ load·length for O/Km per slot
  std::uint64_t windows = 0;      // accumulation windows ending in this slot
  std::uint64_t overflown_windows = 0;
};

struct Metrics {
  // Highest per-vehicle load we keep a distance bucket for.
  static constexpr int kMaxLoadBucket = 7;

  std::uint64_t orders_total = 0;
  std::uint64_t orders_delivered = 0;
  std::uint64_t orders_rejected = 0;
  std::uint64_t orders_pending_at_end = 0;

  double total_xdt_seconds = 0.0;       // over delivered orders
  double total_delivery_seconds = 0.0;  // wall-clock delivery durations
  double total_wait_seconds = 0.0;      // driver waiting at restaurants

  // D_k: meters driven while carrying k picked-up orders (k clamped to
  // kMaxLoadBucket).
  std::array<double, kMaxLoadBucket + 1> distance_by_load_m = {};

  std::uint64_t windows = 0;
  std::uint64_t overflown_windows = 0;   // decision wall time > ∆
  double decision_seconds_total = 0.0;
  double decision_seconds_max = 0.0;
  std::uint64_t cost_evaluations = 0;

  // Per-phase wall-clock totals of the batch-assignment pipeline: the three
  // decision phases reported by the policy (zero for non-instrumenting
  // policies) plus the route-rebuild phase timed by the simulator. The four
  // do not overlap, so their sum is the pipeline's profiled total (what
  // `--profile` ranks). Only accumulated when
  // SimulationInput::measure_wall_clock is set, so deterministic runs carry
  // exact zeros.
  double phase_batching_seconds = 0.0;
  double phase_graph_seconds = 0.0;
  double phase_matching_seconds = 0.0;
  double phase_rebuild_seconds = 0.0;

  std::array<SlotMetrics, kSlotsPerDay> per_slot = {};

  // ---- derived quantities ----

  double TotalDistanceKm() const;
  // Σ k·D_k / Σ D_k (paper §V-B O/Km definition; includes empty driving).
  double OrdersPerKm() const;
  // Total XDT in hours (the "hours/day" y-axis of Fig. 6).
  double XdtHours() const { return total_xdt_seconds / 3600.0; }
  double WaitHours() const { return total_wait_seconds / 3600.0; }
  double MeanXdtSeconds() const;
  double MeanDeliverySeconds() const;
  // Fraction of orders rejected, in percent.
  double RejectionPercent() const;
  // Fraction of windows whose decision exceeded ∆, in percent.
  double OverflowPercent() const;
  double MeanDecisionSeconds() const;

  // O/Km restricted to one slot.
  double SlotOrdersPerKm(int slot) const;

  // One-line human-readable summary.
  std::string Summary() const;
};

}  // namespace fm

#endif  // FOODMATCH_SIM_METRICS_H_
