// Cross-window FOODGRAPH edge cache (the incremental maintenance layer).
//
// Built from scratch, `graph.build` is ~91–93% of FoodMatch decision time
// (BENCH_incremental.json's scratch rows) because every window re-runs
// Alg. 2's best-first search and every insertion-cost SP query. Through
// the cache it is still ~75–80% (BENCH_fig_wallclock.json, one lane). The
// EdgeCache makes the build incremental along two axes:
//
//   1. Search footprints — the best-first discovery order of Alg. 2 for one
//      vehicle depends only on (source, next-destination, hour slot): the
//      queue is driven by the α-weights of Eq. 8, which never look at the
//      batch set, and the batch set / degree bound k only decide where the
//      search *stops*. The cache therefore records the settled node ids in
//      visit order and replays them on the next window. A replayed prefix
//      yields bit-identical visits and therefore edges and `nodes_expanded`
//      counts. No β label is kept: the search labels a node only while its β
//      is within the first-mile bound, so every recorded visit passes the
//      starts-scan's bound test. A replay that needs a deeper prefix than
//      was recorded re-runs the search from the source (counted as a
//      rebuild).
//
//   2. Duration memos — exact per-shard memos of oracle answers keyed
//      (u, v, slot) (see DurationMemo), shared by every planner call the
//      incremental build issues. A memo replays the oracle's own answers,
//      so it is invisible in results. Once per build, PrepareMemos retires
//      the slots the build's clock has left, keeping the trailing one;
//      a retired entry can only turn a later hit into a miss that asks the
//      oracle the same question.
//
// Invalidation: footprints carry their own validity key (source, dest,
// slot), checked at use time, so order-set changes never invalidate them.
// Entries are freed by the OnVehicleRetired hook the DispatchEngine fires on
// retirement, and garbage-collected after kRetainBuilds builds without the
// vehicle, which bounds resident footprint state. Slot retirement keeps
// only the memo entries of the trailing slot, the current one and the
// slots ahead of the clock.
//
// Determinism: entries are keyed per vehicle and each vehicle is owned by
// exactly one shard of the statically sharded build, so cache state after
// any window is independent of the thread count; with the per-shard memos
// value-transparent, incremental builds are bit-identical for 1 vs N lanes
// and bit-identical to the from-scratch build (enforced by
// tests/food_graph_incremental_test.cc and bench_incremental_graph).
#ifndef FOODMATCH_CORE_EDGE_CACHE_H_
#define FOODMATCH_CORE_EDGE_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "graph/distance_oracle.h"
#include "model/vehicle.h"

namespace fm {

// Counters the incremental build accumulates, surfaced by
// `bench_incremental_graph` / BENCH_incremental.json.
struct EdgeCacheStats {
  std::uint64_t retirements = 0;          // OnVehicleRetired notifications
  std::uint64_t footprint_replays = 0;    // searches served from the record
  std::uint64_t footprint_rebuilds = 0;   // search (re)started at the source
  std::uint64_t duration_memo_hits = 0;
  std::uint64_t duration_memo_misses = 0;
  // The builds' work counts (FoodGraph::nodes_expanded / mcost_evaluations
  // summed over every incremental build): deterministic, so benches can
  // gate them exactly.
  std::uint64_t nodes_expanded = 0;
  std::uint64_t mcost_evaluations = 0;
  // Resident state when AggregatedStats() is taken, not running totals:
  // memo entries summed over shards, and recorded footprint visits.
  std::uint64_t memo_entries = 0;
  std::uint64_t footprint_visits = 0;
};

// The settled node ids of one vehicle's best-first search, in visit order.
// Valid only for the exact (source, dest, slot) it was built for —
// everything else the search reads (network, γ, the first-mile bound) is
// fixed per policy instance.
struct SearchFootprint {
  NodeId source = kInvalidNode;
  NodeId dest = kInvalidNode;
  int slot = -1;
  // True when the frontier drained: the visit list is the complete
  // reachable-within-bound set and can never be extended.
  bool exhausted = false;
  std::vector<NodeId> visits;

  void Reset(NodeId new_source, NodeId new_dest, int new_slot);
  bool Matches(NodeId s, NodeId d, int sl) const {
    return source == s && dest == d && slot == sl;
  }
};

// Everything cached for one vehicle. Stable address (held by unique_ptr in
// the registry) so the sharded build can use pre-fetched pointers.
struct VehicleCacheEntry {
  SearchFootprint footprint;
  std::uint64_t last_used_build = 0;
};

/// \brief Per-policy registry of VehicleCacheEntry + per-shard DurationMemos.
///
/// Thread safety: all mutating registry operations (hooks, BeginWindow,
/// PrepareMemos) run on the policy thread between builds. During a build,
/// shards touch only the entries of vehicles they own (pointers pre-fetched
/// by BeginWindow) and their own memo — no shared mutable state.
///
/// Complexity: BeginWindow is O(|vehicles|) hash lookups plus amortized GC.
class EdgeCache {
 public:
  // Event hook, forwarded from the policy (which gets it from the
  // DispatchEngine): the vehicle left the fleet — free everything it cached.
  void OnVehicleRetired(VehicleId vehicle);

  // Reconciles the registry against this window's snapshots: creates
  // missing entries and garbage-collects entries unused for kRetainBuilds
  // builds. Returns one stable entry pointer per snapshot (index-aligned),
  // safe to hand to the sharded build.
  std::vector<VehicleCacheEntry*> BeginWindow(
      const std::vector<VehicleSnapshot>& vehicles);

  // Pre-sizes the per-shard memo set and retires every memo's past hour
  // slots for a build at `slot` (DurationMemo::RetirePastSlots); call once
  // per build, before the parallel region.
  void PrepareMemos(int shards, int slot);
  DurationMemo& memo_for_shard(int shard) { return *memos_[shard]; }

  EdgeCacheStats& stats() { return stats_; }
  // Stats with the per-shard memo counters and the resident state folded in.
  EdgeCacheStats AggregatedStats() const;

  std::size_t entry_count() const { return entries_.size(); }

  static constexpr std::uint64_t kRetainBuilds = 256;

 private:
  std::uint64_t builds_ = 0;
  EdgeCacheStats stats_;
  std::unordered_map<VehicleId, std::unique_ptr<VehicleCacheEntry>> entries_;
  std::vector<std::unique_ptr<DurationMemo>> memos_;
};

}  // namespace fm

#endif  // FOODMATCH_CORE_EDGE_CACHE_H_
