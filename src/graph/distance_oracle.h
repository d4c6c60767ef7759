// Unified quickest-path query facade used by every assignment policy.
//
// SP(u, v, t) (paper notation) is answered against the hour slot of t. Three
// backends:
//   * kHubLabels — lazily builds one HubLabels index per hour slot on first
//     use (the paper's hub-labeling index [18]); fastest for simulation.
//   * kDijkstra  — exact per-query Dijkstra with a bounded memo cache;
//     reference backend for tests and small instances.
//   * kHaversine — straight-line distance divided by a constant speed; this
//     is the distance model of Reyes et al. [5] and of the GrubHub profile
//     (no road network available).
#ifndef FOODMATCH_GRAPH_DISTANCE_ORACLE_H_
#define FOODMATCH_GRAPH_DISTANCE_ORACLE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/time.h"
#include "common/types.h"
#include "graph/hub_labels.h"
#include "graph/road_network.h"

namespace fm {

class ThreadPool;

enum class OracleBackend {
  kHubLabels,
  kDijkstra,
  kHaversine,
};

/// \brief Quickest-path query facade over a RoadNetwork.
///
/// Thread safety: Duration() is safe to call concurrently from any number of
/// threads for every backend. The guarantees per backend are:
///   * kHaversine — pure computation, wait-free.
///   * kHubLabels — warmed slots (see WarmSlots) are answered by a lock-free
///     read of an immutable index; a cold slot is built exactly once under a
///     mutex (double-checked), other threads querying that slot block until
///     the build completes. Warm the simulated horizon up front to keep the
///     hot path lock-free.
///   * kDijkstra  — the per-slot memo cache is guarded by a mutex; queries
///     serialize on it. This backend is the *reference* implementation for
///     tests, not a performance path.
/// Results are deterministic: the answer to Duration(u, v, t) never depends
/// on thread interleaving (the memo cache only memoizes exact results).
///
/// Complexity per query: O(label size) merge-join for hub labels
/// (sub-microsecond in practice), O((m + n) log n) for uncached Dijkstra,
/// O(1) for haversine.
///
/// Memory: each built hub-label slot holds 10 B per label entry plus 8 B
/// per node of offsets (see IndexBytes).
class DistanceOracle {
 public:
  /// `net` must outlive the oracle. `haversine_speed_mps` is only used by
  /// the kHaversine backend.
  DistanceOracle(const RoadNetwork* net, OracleBackend backend,
                 double haversine_speed_mps = 7.0);
  ~DistanceOracle();

  /// SP(u, v, t): quickest-path travel time in seconds at time-of-day `t`.
  /// kInfiniteTime if unreachable. Safe for concurrent callers (see class
  /// comment).
  Seconds Duration(NodeId u, NodeId v, Seconds time_of_day) const;

  /// \brief Eagerly builds the hub-label index for every slot in
  /// [first, last]. No-op for other backends. Call before issuing concurrent
  /// queries so the hot path stays lock-free.
  ///
  /// Parallelism: per-slot HubLabels builds are independent functions of
  /// (network, slot), so cold slots are sharded across `pool` lanes; each
  /// build runs lock-free into shard-private storage and is published with a
  /// release store under `build_mutex_` (the same slot-once discipline
  /// LabelsForSlot uses). Duplicate builds raced by concurrent Duration()
  /// callers are discarded, and the published index for a slot is always the
  /// deterministic HubLabels::Build result — so a warmed oracle serves
  /// durations bit-identical to a serially warmed one for any lane count.
  ///
  /// Thread safety: safe to call concurrently with Duration() on any thread;
  /// do not call WarmSlots itself from inside one of `pool`'s jobs (the pool
  /// is a non-reentrant fork-join primitive).
  ///
  /// Complexity: one HubLabels::Build per cold slot — the dominant term, and
  /// the reason warm-up wall-clock scales ~1/lanes; warm slots cost one
  /// acquire load each.
  void WarmSlots(int first_slot, int last_slot, ThreadPool* pool = nullptr);

  /// Hub-label entries (HubLabels::TotalLabelEntries) and index bytes
  /// (HubLabels::MemoryBytes), each summed over the slots built so far.
  /// Zero for the other backends.
  std::size_t LabelEntries() const;
  std::size_t IndexBytes() const;

  OracleBackend backend() const { return backend_; }
  const RoadNetwork& network() const { return *net_; }

  /// Assumed constant speed of the kHaversine backend (meters/second);
  /// meaningless for the other backends.
  double haversine_speed_mps() const { return haversine_speed_mps_; }

  /// Number of Duration() calls served (for instrumentation). The count is
  /// exact under concurrency (relaxed atomic increments).
  std::uint64_t query_count() const {
    return query_count_.load(std::memory_order_relaxed);
  }

 private:
  const HubLabels& LabelsForSlot(int slot) const;

  const RoadNetwork* net_;
  OracleBackend backend_;
  double haversine_speed_mps_;

  // Per-slot hub-label indices. Published via release stores so concurrent
  // readers of a warmed slot never take build_mutex_. Owned raw pointers
  // (deleted in the destructor) because std::atomic<unique_ptr> is not a
  // thing.
  mutable std::array<std::atomic<HubLabels*>, kSlotsPerDay> labels_ = {};
  mutable std::mutex build_mutex_;
  // Per-slot memo for the Dijkstra backend, keyed by (u, v) packed into 64
  // bits. Cleared when it exceeds kDijkstraCacheCap entries. Guarded by
  // dijkstra_mutex_.
  mutable std::array<std::unordered_map<std::uint64_t, Seconds>, kSlotsPerDay>
      dijkstra_cache_;
  mutable std::mutex dijkstra_mutex_;
  mutable std::atomic<std::uint64_t> query_count_ = 0;

  static constexpr std::size_t kDijkstraCacheCap = 1u << 22;
};

/// \brief Single-owner memo of exact Duration() answers keyed (u, v, slot).
///
/// A memo never changes a result — it stores the oracle's own answer for a
/// key and replays it bit-for-bit — so plugging one into a planner call is
/// purely an optimization. Because a query's answer depends on the time of
/// day only through HourSlot(t), one entry per (u, v, slot) is exact.
///
/// Retirement: entries live in one table per hour slot, and RetirePastSlots
/// drops the tables the clock has left. Slot `now_slot - 1` (the trailing
/// slot) is kept, because legs keyed on an order's `placed_at` (the
/// ShortestDeliveryTime term) still read it; slots ahead of the clock are
/// kept, because a plan's later legs are keyed on their arrival times. Times
/// wrap at midnight, so "behind" means the half day before the trailing
/// slot. Dropping an entry can only turn a later hit into a miss that asks
/// the oracle the same question, so retirement is as value-transparent as
/// the memo itself.
///
/// Thread safety: none. Callers in sharded loops keep one memo per shard
/// (determinism is unaffected either way: hit or miss, the value returned
/// is the oracle's).
///
/// Complexity: O(1) expected per query; RetirePastSlots is O(retired
/// entries) when the slot advances and O(1) otherwise. As a backstop the
/// memo clears itself when it reaches `cap` entries (kCap unless a test
/// shrinks it).
class DurationMemo {
 public:
  static constexpr std::size_t kCap = 1u << 22;

  explicit DurationMemo(std::size_t cap = kCap) : cap_(cap) {}

  Seconds Duration(const DistanceOracle& oracle, NodeId u, NodeId v,
                   Seconds time_of_day) {
    auto& table = tables_[HourSlot(time_of_day)];
    const std::uint64_t key =
        static_cast<std::uint64_t>(u) * oracle.network().num_nodes() +
        static_cast<std::uint64_t>(v);
    auto it = table.find(key);
    if (it != table.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
    const Seconds d = oracle.Duration(u, v, time_of_day);
    if (size() >= cap_) Clear();
    table.emplace(key, d);
    return d;
  }

  /// Drops every entry keyed to a slot behind `now_slot`'s trailing slot
  /// (see the class comment). A no-op until `now_slot` changes.
  void RetirePastSlots(int now_slot) {
    if (now_slot == clock_slot_) return;
    clock_slot_ = now_slot;
    for (int behind = 2; behind <= kSlotsPerDay / 2; ++behind) {
      Table& table = tables_[(now_slot - behind + kSlotsPerDay) % kSlotsPerDay];
      if (!table.empty()) Table().swap(table);  // frees the buckets too
    }
  }

  void Clear() {
    for (Table& table : tables_) Table().swap(table);
  }
  std::size_t size() const {
    std::size_t total = 0;
    for (const Table& table : tables_) total += table.size();
    return total;
  }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  using Table = std::unordered_map<std::uint64_t, Seconds>;  // (u, v) → SP

  std::size_t cap_;
  std::array<Table, kSlotsPerDay> tables_;
  int clock_slot_ = -1;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace fm

#endif  // FOODMATCH_GRAPH_DISTANCE_ORACLE_H_
