// Lightweight wall-clock phase profiler for the batch-assignment pipeline.
//
// The parallel rungs (FOODGRAPH fill, order-graph edge weights, hub-label
// warm-up, route rebuilds) shrink with --threads while the serial remainder
// (Kuhn–Munkres, the clustering merge loop) does not; the profiler exists to
// *rank* that remainder. Producers time code regions with ScopedPhaseTimer
// into a PhaseProfile; aggregates flow AssignmentDecision → Metrics →
// WallClockReport / the tools' --profile, so per-phase breakdowns end up in
// BENCH_fig_wallclock.json and the CI artifacts.
//
// A PhaseProfile holds only phases that do not overlap — the decision's
// sub-phases, the simulator's rebuild.plans and the tools' oracle.warm — so
// its total is meaningful. Time measured outside a decision (the sharded
// router, intake, the window executor, WAL fsyncs) goes to the
// obs::MetricsRegistry histograms instead (docs/OBSERVABILITY.md).
//
// Profiling is wall-clock only and never feeds back into simulated time or
// any decision, so enabling it cannot perturb results — the same rule the
// coarse Metrics::phase_*_seconds fields already follow. A null
// PhaseProfile* disables a timer entirely (no clock reads), keeping
// profiler-aware code free for hot callers that opt out.
#ifndef FOODMATCH_COMMON_PROFILER_H_
#define FOODMATCH_COMMON_PROFILER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace fm {

/// Aggregate for one named phase: total wall-clock and times entered.
struct PhaseStat {
  double seconds = 0.0;
  std::uint64_t calls = 0;
};

/// \brief Accumulates named wall-clock phases.
///
/// Thread safety: none — a PhaseProfile must only be mutated from one thread
/// at a time. Parallel regions are timed from the *outside* (the fork-join
/// caller records one interval spanning the whole region); shard bodies never
/// touch the profile.
///
/// Complexity: Record/Merge are O(log #phases) map operations; the phase set
/// is a handful of fixed names, so cost is negligible next to any timed work.
class PhaseProfile {
 public:
  /// Adds `seconds` (and one call) to `phase`, creating it if new.
  void Record(const std::string& phase, double seconds);

  /// Adds every phase of `other` into this profile.
  void Merge(const PhaseProfile& other);

  bool empty() const { return phases_.empty(); }
  double TotalSeconds() const;
  const std::map<std::string, PhaseStat>& phases() const { return phases_; }

  /// Phases sorted by descending total seconds (name breaks ties) — the
  /// "what remains serial" ranking.
  std::vector<std::pair<std::string, PhaseStat>> Ranked() const;

  /// Aligned human-readable table: phase, seconds, share of total, calls.
  std::string FormatTable() const;

  /// JSON object fragment `{"name": {"seconds": s, "calls": n}, ...}` with
  /// keys in sorted order (stable diffs). `indent` spaces prefix each line.
  std::string ToJson(int indent = 0) const;

 private:
  std::map<std::string, PhaseStat> phases_;
};

/// Process-global bridge from phase timers to the tracing subsystem
/// (obs/trace.h): while a hook is installed, EVERY ScopedPhaseTimer also
/// reports its (phase, start, end) interval on destruction — including
/// timers constructed with a null profile, so tracing captures phases that
/// profiling skipped. The profiler layer never depends on obs/; the tracer
/// installs the hook when it is enabled and removes it when disabled.
/// Installation must happen while no timers are live (tool startup /
/// shutdown). The hook runs on the timer's thread and must be thread-safe.
using PhaseSpanHook = void (*)(const char* phase,
                               std::chrono::steady_clock::time_point start,
                               std::chrono::steady_clock::time_point end);
void SetPhaseSpanHook(PhaseSpanHook hook);
PhaseSpanHook GetPhaseSpanHook();

/// \brief RAII timer: records the enclosing scope's wall-clock into a phase.
///
/// A null profile makes construction and destruction no-ops (not even a
/// clock read) — unless a PhaseSpanHook is installed, in which case the
/// interval is still read and forwarded to the hook. With no profile and no
/// hook the only cost is one relaxed atomic load. Non-copyable; intended
/// for block scope only.
class ScopedPhaseTimer {
 public:
  ScopedPhaseTimer(PhaseProfile* profile, std::string phase)
      : profile_(profile), phase_(std::move(phase)),
        hook_(GetPhaseSpanHook()) {
    if (profile_ != nullptr || hook_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }

  ~ScopedPhaseTimer() {
    if (profile_ == nullptr && hook_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    if (profile_ != nullptr) {
      profile_->Record(phase_,
                       std::chrono::duration<double>(end - start_).count());
    }
    if (hook_ != nullptr) hook_(phase_.c_str(), start_, end);
  }

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  PhaseProfile* profile_;
  std::string phase_;
  // Captured at construction so an enable/disable between construction and
  // destruction cannot pair a clock read with a missing (or fresh) hook.
  PhaseSpanHook hook_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace fm

#endif  // FOODMATCH_COMMON_PROFILER_H_
