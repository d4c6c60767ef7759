// Per-thread ring-buffered tracing with Chrome trace-event / Perfetto JSON
// output.
//
// The tracer records *spans* (named wall-clock intervals) and *async
// lifecycle markers* (begin/instant/end events correlated by an id) into
// fixed-capacity per-thread rings: a thread's first emission registers a
// ring under the global mutex, every later emission is a few stores into
// thread-private memory — no locks, no allocation beyond the event's name
// string (small names stay in SSO). When a ring fills, the oldest events
// are overwritten and counted as dropped, so tracing a long run costs
// bounded memory and keeps the most recent history.
//
// Spans come from two sources:
//   * obs::ScopedSpan — explicit RAII spans in instrumented code (the
//     batching sub-phases, window closes, shard fan-outs); a span given a
//     registry histogram (the sharded router's serving.* regions) also
//     records its duration there, traced or not;
//   * async order-lifecycle markers ('b' placed → 'n' drained into the
//     core → 'e' decision) with the order id as the correlation id,
//     emitted by the window executor (core/window_executor.cc).
//
// Output (WriteJson) is the Chrome trace-event JSON array format —
// `{"traceEvents": [...]}` with "X" complete events and "b"/"n"/"e"
// nestable async events — which Perfetto (https://ui.perfetto.dev) and
// chrome://tracing open directly; `fmsim --trace-out` / `fmserve
// --trace-out` write it.
//
// Decision-neutrality: the tracer only reads the wall clock and copies
// names; nothing is ever read back by dispatch code, so enabling tracing
// cannot change any result (gated by bench_observability).
//
// Thread safety: Emit* from any thread. Enable/Disable/Reset and
// WriteJson/SortedEvents require every emitting thread to be quiescent —
// the tool pattern (enable before the run, write after join) satisfies
// this trivially.
#ifndef FOODMATCH_OBS_TRACE_H_
#define FOODMATCH_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/instruments.h"

namespace fm::obs {

/// One trace event, in Chrome trace-event terms.
struct TraceEvent {
  std::string name;
  const char* category = "app";  // must point at static storage
  char phase = 'X';              // 'X' complete; 'b'/'n'/'e' nestable async
  std::uint64_t ts_us = 0;       // µs since Enable()
  std::uint64_t dur_us = 0;      // 'X' only
  std::uint32_t tid = 0;         // registration index of the emitting thread
  std::uint64_t id = 0;          // async correlation id ('b'/'n'/'e' only)
};

class Tracer {
 public:
  /// The process-wide tracer the RAII helpers and instrumented code use.
  static Tracer& Global();

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Starts recording: clears previous events and sets the time origin.
  /// Capacity is per thread ring; the oldest events are overwritten past
  /// it.
  void Enable(std::size_t events_per_thread = 1 << 15);

  /// Stops recording. Recorded events stay available for
  /// WriteJson/SortedEvents until the next Enable().
  void Disable();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records a complete ('X') span. No-op while disabled.
  void EmitComplete(const char* name, const char* category,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end);

  /// Records a nestable async event ('b' begin, 'n' instant, 'e' end)
  /// stamped now, correlated by `id` within `category`. No-op while
  /// disabled.
  void EmitAsync(char phase, const char* name, const char* category,
                 std::uint64_t id);

  /// Events overwritten because a ring filled (sum over threads).
  std::uint64_t dropped() const;

  /// All recorded events sorted by (ts_us, tid). Emitters must be
  /// quiescent.
  std::vector<TraceEvent> SortedEvents() const;

  /// Writes Chrome trace-event JSON. Returns false on IO error. Emitters
  /// must be quiescent.
  bool WriteJson(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::vector<TraceEvent> ring;
    std::uint64_t next = 0;  // total events emitted; ring slot = next % cap
    std::uint32_t tid = 0;
  };

  // The calling thread's buffer for the current enable generation,
  // registering it on first use. Null while disabled.
  ThreadBuffer* ThisBuffer();
  void Push(TraceEvent event);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{0};
  std::chrono::steady_clock::time_point epoch_;
  std::size_t capacity_ = 1 << 15;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII complete-span helper over the global tracer. `name` and `category`
/// must outlive the span (string literals in practice). A non-null
/// `histogram` also observes the span's wall-clock seconds whether or not
/// tracing is on, so a timed region feeds the registry and the trace from
/// one clock pair. Cost with tracing disabled and no histogram: one relaxed
/// atomic load, no clock read.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* category = "task",
                      Histogram* histogram = nullptr)
      : name_(name), category_(category), histogram_(histogram),
        active_(Tracer::Global().enabled()) {
    if (active_ || histogram_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }

  ~ScopedSpan() {
    if (!active_ && histogram_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    if (histogram_ != nullptr) {
      histogram_->Observe(std::chrono::duration<double>(end - start_).count());
    }
    if (active_) Tracer::Global().EmitComplete(name_, category_, start_, end);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  const char* category_;
  Histogram* histogram_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

/// Order-lifecycle marker (category "order", id = the order id): 'b' when
/// the order is submitted to intake, 'n' when the drain replays it into
/// the core, 'e' when a window's decision settles it (assigned or
/// rejected). Correlating by id strings the three markers into one async
/// track per order in Perfetto.
inline void EmitOrderLifecycle(char phase, const char* name,
                               std::uint64_t order_id) {
  Tracer::Global().EmitAsync(phase, name, "order", order_id);
}

}  // namespace fm::obs

#endif  // FOODMATCH_OBS_TRACE_H_
