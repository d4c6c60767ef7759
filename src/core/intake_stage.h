// The absorb half of the streaming intake/executor split.
//
// An IntakeStage is the concurrent front door of a dispatch core: producer
// threads absorb stamped intake events into a bounded lock-free MPSC ring
// (common/mpsc_queue.h) *while the previous window's decision is still
// computing*, and the single consumer — the window executor
// (core/window_executor.h) — drains the ring between windows. Absorption
// does the work that can safely leave the serial window path:
//
//   pre-validation   malformed events (invalid ids/nodes, non-positive item
//                    counts) are dropped at the door with a counter instead
//                    of reaching the engine's FM_CHECKs — a live gateway
//                    must shed garbage, not die on it;
//
//   pre-routing      each accepted order's restaurant→customer leg is
//                    queried once through the shared DistanceOracle and
//                    the answer discarded. It seeds no cache: the
//                    hub-label backend keeps none (the duration memos
//                    belong to the policy's EdgeCache), and the tools,
//                    benches and perfbench warm their hour slots before
//                    the run, so on served paths the query only builds a
//                    slot the warm-up left cold. Each one is counted in
//                    oracle.queries.
//
// Validation and pre-routing run on the producer's thread, so the window
// executor's serial drain stays a sort + a replay.
//
// Determinism: nothing here can change results. Validation only drops
// events the synchronous path would have aborted on; the oracle is a pure
// function (Duration(u, v, t) never depends on who warmed it — see
// graph/distance_oracle.h), so pre-routing is invisible to the decision.
// The scheduler-dependent ring order is repaired by the executor's
// (timestamp, sequence) sort before any event touches the engine.
//
// Thread safety: TryAbsorb/Absorb from any number of producers; DrainInto
// from one consumer thread. Counters are atomics and readable anywhere.
#ifndef FOODMATCH_CORE_INTAKE_STAGE_H_
#define FOODMATCH_CORE_INTAKE_STAGE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/mpsc_queue.h"
#include "core/engine_event.h"
#include "graph/distance_oracle.h"
#include "obs/instruments.h"

namespace fm {

struct IntakeOptions {
  // Ring capacity (>= 1; rounded up to a power of two). When the ring is
  // full, TryAbsorb reports backpressure and Absorb blocks.
  std::size_t queue_capacity = 4096;
  // Pre-route accepted orders through `oracle` on the producer thread.
  // Ignored when `oracle` is null.
  bool prestage = true;
  // Shared oracle for pre-routing; must be safe for concurrent Duration()
  // (every backend is — see graph/distance_oracle.h). May be null.
  const DistanceOracle* oracle = nullptr;
};

enum class AbsorbResult {
  kStaged,          // event accepted into the ring
  kDroppedInvalid,  // event failed pre-validation and was shed
  kBackpressure,    // ring full — retry, shed, or block via Absorb
};

// Pre-validation predicate (exposed for tests): ids and nodes present,
// item counts positive. Retirement events only need their id.
bool ValidEngineEvent(const EngineEvent& event);

class IntakeStage {
 public:
  explicit IntakeStage(const IntakeOptions& options);

  IntakeStage(const IntakeStage&) = delete;
  IntakeStage& operator=(const IntakeStage&) = delete;

  // Validates, pre-stages, and enqueues without blocking. Producer-safe.
  AbsorbResult TryAbsorb(StampedEvent event);

  // Like TryAbsorb but spins (with yield) through backpressure; the
  // consumer must keep draining concurrently. Returns false iff the event
  // was dropped as invalid. Producer-safe.
  bool Absorb(StampedEvent event);

  // Pops every staged event into `out` (appending; ring interleaving
  // order). Consumer only.
  std::size_t DrainInto(std::vector<StampedEvent>* out);

  // Optional sink for the wall clock of each accepted absorb (validation,
  // pre-routing and the push). Set before any producer starts; the
  // histogram must outlive the stage. Null (the default) reads no clock.
  void set_absorb_histogram(obs::Histogram* histogram) {
    absorb_seconds_ = histogram;
  }

  // Cumulative counters (atomic; readable from any thread).
  std::uint64_t absorbed() const {
    return absorbed_.load(std::memory_order_relaxed);
  }
  std::uint64_t prestaged() const {
    return prestaged_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped_invalid() const {
    return dropped_invalid_.load(std::memory_order_relaxed);
  }
  // Push calls that found the ring full and waited (blocking Absorb only).
  std::uint64_t blocked_pushes() const { return queue_.blocked_pushes(); }

  /// Racy estimate of events currently staged in the ring (monitoring
  /// only; see MpscQueue::ApproxSize).
  std::size_t queue_depth() const { return queue_.ApproxSize(); }

  std::size_t queue_capacity() const { return queue_.capacity(); }

 private:
  // Pre-routes an accepted event's order leg (producer thread).
  void Prestage(const StampedEvent& event);

  IntakeOptions options_;
  MpscQueue<StampedEvent> queue_;

  std::atomic<std::uint64_t> absorbed_{0};
  std::atomic<std::uint64_t> prestaged_{0};
  std::atomic<std::uint64_t> dropped_invalid_{0};
  obs::Histogram* absorb_seconds_ = nullptr;
};

}  // namespace fm

#endif  // FOODMATCH_CORE_INTAKE_STAGE_H_
