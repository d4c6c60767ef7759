#include "graph/distance_oracle.h"

#include <memory>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "geo/geo.h"
#include "graph/dijkstra.h"

namespace fm {

DistanceOracle::DistanceOracle(const RoadNetwork* net, OracleBackend backend,
                               double haversine_speed_mps)
    : net_(net), backend_(backend), haversine_speed_mps_(haversine_speed_mps) {
  FM_CHECK(net != nullptr);
  FM_CHECK_GT(haversine_speed_mps, 0.0);
}

DistanceOracle::~DistanceOracle() {
  for (auto& slot : labels_) delete slot.load(std::memory_order_relaxed);
}

const HubLabels& DistanceOracle::LabelsForSlot(int slot) const {
  FM_CHECK_GE(slot, 0);
  FM_CHECK_LT(slot, kSlotsPerDay);
  // Fast path: a warmed slot is an immutable index behind an acquire load.
  HubLabels* existing = labels_[slot].load(std::memory_order_acquire);
  if (existing != nullptr) return *existing;
  // Cold slot: build exactly once; concurrent queriers of the same slot wait
  // here rather than duplicating the (expensive) construction.
  std::lock_guard<std::mutex> lock(build_mutex_);
  existing = labels_[slot].load(std::memory_order_acquire);
  if (existing == nullptr) {
    existing = new HubLabels(HubLabels::Build(*net_, slot));
    labels_[slot].store(existing, std::memory_order_release);
  }
  return *existing;
}

void DistanceOracle::WarmSlots(int first_slot, int last_slot,
                               ThreadPool* pool) {
  if (backend_ != OracleBackend::kHubLabels) return;
  FM_CHECK_LE(first_slot, last_slot);
  FM_CHECK_GE(first_slot, 0);
  FM_CHECK_LT(last_slot, kSlotsPerDay);
  // Collect the cold slots, then build them concurrently: each build is an
  // independent, deterministic function of (network, slot) and writes only
  // its own local index until the publish. Publishing re-checks under the
  // mutex so a concurrent Duration() caller that built the same slot first
  // wins and the duplicate is discarded — either way the stored index is
  // the same deterministic HubLabels::Build result.
  std::vector<int> cold;
  for (int s = first_slot; s <= last_slot; ++s) {
    if (labels_[s].load(std::memory_order_acquire) == nullptr) {
      cold.push_back(s);
    }
  }
  ParallelFor(pool, cold.size(), [&](std::size_t idx) {
    const int s = cold[idx];
    auto built = std::make_unique<HubLabels>(HubLabels::Build(*net_, s));
    std::lock_guard<std::mutex> lock(build_mutex_);
    if (labels_[s].load(std::memory_order_acquire) == nullptr) {
      labels_[s].store(built.release(), std::memory_order_release);
    }
  });
}

std::size_t DistanceOracle::LabelEntries() const {
  std::size_t total = 0;
  for (const auto& slot : labels_) {
    const HubLabels* built = slot.load(std::memory_order_acquire);
    if (built != nullptr) total += built->TotalLabelEntries();
  }
  return total;
}

std::size_t DistanceOracle::IndexBytes() const {
  std::size_t total = 0;
  for (const auto& slot : labels_) {
    const HubLabels* built = slot.load(std::memory_order_acquire);
    if (built != nullptr) total += built->MemoryBytes();
  }
  return total;
}

Seconds DistanceOracle::Duration(NodeId u, NodeId v,
                                 Seconds time_of_day) const {
  query_count_.fetch_add(1, std::memory_order_relaxed);
  if (u == v) return 0.0;
  switch (backend_) {
    case OracleBackend::kHaversine: {
      const Meters d =
          Haversine(net_->node_position(u), net_->node_position(v));
      return d / haversine_speed_mps_;
    }
    case OracleBackend::kHubLabels: {
      return LabelsForSlot(HourSlot(time_of_day)).Query(u, v);
    }
    case OracleBackend::kDijkstra: {
      const int slot = HourSlot(time_of_day);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
      {
        std::lock_guard<std::mutex> lock(dijkstra_mutex_);
        auto& cache = dijkstra_cache_[slot];
        auto it = cache.find(key);
        if (it != cache.end()) return it->second;
      }
      // Run the search outside the lock so concurrent cache misses overlap.
      const Seconds d = PointToPointTime(*net_, u, v, slot);
      {
        std::lock_guard<std::mutex> lock(dijkstra_mutex_);
        auto& cache = dijkstra_cache_[slot];
        if (cache.size() >= kDijkstraCacheCap) cache.clear();
        cache.emplace(key, d);
      }
      return d;
    }
  }
  FM_CHECK_MSG(false, "unknown oracle backend");
  return kInfiniteTime;
}

}  // namespace fm
