#include "core/food_graph.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/time.h"
#include "core/edge_cache.h"
#include "geo/geo.h"
#include "routing/route_planner.h"

namespace fm {
namespace {

// Per-vehicle lazily computed base-route cost: mCost(π, v) = cost(plan with
// π) − cost(plan without), and the "without" term depends only on (v, now),
// so one evaluation serves every candidate batch of the vehicle. Computing
// it lazily (on the first pair that passes the first-mile gate) reproduces
// exactly the calls the unhoisted code would have made.
struct LazyBase {
  bool computed = false;
  Seconds value = kInfiniteTime;
};

// Edge weight for one batch-vehicle pair: min(mCost, Ω), or Ω when the pair
// is infeasible (Def. 4 capacities, unreachable stops, or the 45-minute
// first-mile bound of §V-B). `base` caches the vehicle's base-route cost
// across calls for the same vehicle. A non-null `memo` serves the SP legs;
// it replays the oracle's own answers, so the weight is bit-identical with
// or without one.
Seconds PairWeight(const DistanceOracle& oracle, const Config& config,
                   const Batch& batch, const VehicleSnapshot& vehicle,
                   Seconds now, LazyBase& base, DurationMemo* memo) {
  const Seconds omega = config.rejection_penalty;
  const Seconds first_mile =
      memo != nullptr
          ? memo->Duration(oracle, vehicle.location, batch.first_pickup, now)
          : oracle.Duration(vehicle.location, batch.first_pickup, now);
  if (first_mile > config.max_first_mile) return omega;
  if (!base.computed) {
    base.value = BaseRouteCost(oracle, vehicle, now, memo);
    base.computed = true;
  }
  const Seconds mcost = MarginalCostWithBase(oracle, vehicle, now,
                                             batch.orders, base.value, memo);
  if (mcost == kInfiniteTime) return omega;
  return std::min(mcost, omega);
}

// VΠ as a CSR index: candidate first-pickup nodes (sorted) with the batch
// rows starting at each, ascending. Replaces a per-build hash map — built
// serially in O(|batches| log |batches|), read lock-free by every shard.
struct StartIndex {
  std::vector<NodeId> nodes;            // sorted unique first-pickup nodes
  std::vector<std::uint32_t> offsets;   // nodes.size() + 1 prefix offsets
  std::vector<std::uint32_t> rows;      // batch indices, ascending per node
  // Optional O(1) node → index-into-offsets lookup (-1: no batch starts
  // there). Built only by the incremental path, which probes the index once
  // per replayed visit — at tens of thousands of visits per window the
  // binary search is a measurable cost; the from-scratch builder keeps it.
  std::vector<std::int32_t> flat;

  bool empty() const { return nodes.empty(); }

  void BuildFlat(std::size_t num_nodes) {
    flat.assign(num_nodes, -1);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      flat[nodes[i]] = static_cast<std::int32_t>(i);
    }
  }

  // [begin, end) into `rows` for `node`; empty when no batch starts there.
  std::pair<const std::uint32_t*, const std::uint32_t*> RowsAt(
      NodeId node) const {
    if (!flat.empty()) {
      const std::int32_t idx = flat[node];
      if (idx < 0) return {nullptr, nullptr};
      return {rows.data() + offsets[idx], rows.data() + offsets[idx + 1]};
    }
    auto it = std::lower_bound(nodes.begin(), nodes.end(), node);
    if (it == nodes.end() || *it != node) return {nullptr, nullptr};
    const std::size_t idx = static_cast<std::size_t>(it - nodes.begin());
    return {rows.data() + offsets[idx], rows.data() + offsets[idx + 1]};
  }
};

StartIndex BuildStartIndex(const std::vector<Batch>& batches) {
  StartIndex index;
  std::vector<std::pair<NodeId, std::uint32_t>> pairs;
  pairs.reserve(batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    if (batches[i].cost == kInfiniteTime) continue;  // unroutable batch
    pairs.emplace_back(batches[i].first_pickup, static_cast<std::uint32_t>(i));
  }
  // Lexicographic sort keeps rows ascending per node — the same scan order
  // the per-node push_back of the previous hash-map index produced.
  std::sort(pairs.begin(), pairs.end());
  index.rows.reserve(pairs.size());
  for (const auto& [node, row] : pairs) {
    if (index.nodes.empty() || index.nodes.back() != node) {
      index.nodes.push_back(node);
      index.offsets.push_back(static_cast<std::uint32_t>(index.rows.size()));
    }
    index.rows.push_back(row);
  }
  index.offsets.push_back(static_cast<std::uint32_t>(index.rows.size()));
  return index;
}

// Reusable scratch for one vehicle's best-first search; allocated once per
// shard so parallel searches never share mutable state.
struct SearchScratch {
  std::vector<double> alpha_dist;
  std::vector<Seconds> beta_dist;
  std::vector<bool> visited;

  explicit SearchScratch(std::size_t nodes)
      : alpha_dist(nodes), beta_dist(nodes), visited(nodes) {}
};

// Counters one shard accumulates privately; reduced over shards in fixed
// order so totals are identical for any thread count. The footprint counters
// stay zero outside the incremental sparsified build.
struct ShardCounters {
  std::uint64_t mcost_evaluations = 0;
  std::uint64_t nodes_expanded = 0;
  std::uint64_t footprint_replays = 0;
  std::uint64_t footprint_rebuilds = 0;
};

// The derived degree bound k (§V-B, with a coverage floor).
int DeriveK(const Config& config, const FoodGraphOptions& options,
            std::size_t num_batches, std::size_t num_vehicles) {
  int k = options.fixed_k;
  if (k <= 0) {
    k = std::max(config.k_min,
                 static_cast<int>(config.k_scale *
                                  static_cast<double>(num_batches) /
                                  static_cast<double>(num_vehicles)));
  }
  return std::max(k, 1);
}

// Folds per-shard counters into the graph (and into the cache stats, when
// given) in fixed shard order.
void ReduceCounters(const std::vector<ShardCounters>& counters,
                    FoodGraph& graph, EdgeCacheStats* stats = nullptr) {
  for (const ShardCounters& c : counters) {
    graph.mcost_evaluations += c.mcost_evaluations;
    graph.nodes_expanded += c.nodes_expanded;
    if (stats != nullptr) {
      stats->nodes_expanded += c.nodes_expanded;
      stats->mcost_evaluations += c.mcost_evaluations;
      stats->footprint_replays += c.footprint_replays;
      stats->footprint_rebuilds += c.footprint_rebuilds;
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental construction (through the EdgeCache)
// ---------------------------------------------------------------------------

// A live best-first search (the loop of Alg. 2) that settles nodes into a
// SearchFootprint one at a time. Allocated once per shard per build; stamps
// make reuse across vehicles O(touched) instead of the O(|V|) fills the
// from-scratch search pays per vehicle.
//
// It settles the same nodes, with the same labels, in the same order as the
// from-scratch search, with less arithmetic. The angular term of Eq. 8
// depends only on an edge's head, so each node's is evaluated once, when
// the node is first labelled. The frontier is an indexed 4-ary heap that
// holds each labelled, unsettled node once, keyed (α, node): a strict total
// order. The from-scratch search's lazy-deletion queue pops the least
// (d, node) after skipping settled nodes, and a node's superseded entries
// all carry a larger d than its current label, so both pop the same node.
struct LiveSearch {
  static constexpr std::size_t kArity = 4;
  struct HeapEntry {
    double alpha;  // the node's current α label
    NodeId node;
  };

  const RoadNetwork& net;
  const int slot;
  const Seconds max_beta;
  const double gamma;
  const bool angular;
  const Seconds max_first_mile;
  const LatLon* source_pos = nullptr;
  const LatLon* dest_pos = nullptr;
  double theta_dest = 0.0;  // Θ(source, dest)
  std::uint64_t stamp = 0;
  // == stamp: beta, heading and (until settled) heap_pos are valid.
  std::vector<std::uint64_t> label_stamp;
  std::vector<std::uint64_t> visit_stamp;  // == stamp: node settled
  std::vector<Seconds> beta;
  std::vector<double> heading;  // AngularDistance(source, dest, node)
  std::vector<std::uint32_t> heap_pos;
  std::vector<HeapEntry> heap;

  LiveSearch(const RoadNetwork& network, int hour_slot, Seconds max_edge_beta,
             double search_gamma, bool use_angular, Seconds first_mile_bound)
      : net(network), slot(hour_slot), max_beta(max_edge_beta),
        gamma(search_gamma), angular(use_angular),
        max_first_mile(first_mile_bound), label_stamp(network.num_nodes(), 0),
        visit_stamp(network.num_nodes(), 0), beta(network.num_nodes()),
        heading(use_angular ? network.num_nodes() : 0),
        heap_pos(network.num_nodes()) {}

  // Seeds the search exactly like the from-scratch one: `fp`'s source
  // labelled at α = 0, β = 0, alone on the frontier.
  void Start(const SearchFootprint& fp) {
    ++stamp;
    source_pos = &net.node_position(fp.source);
    dest_pos = &net.node_position(fp.dest);
    theta_dest = Bearing(*source_pos, *dest_pos);
    label_stamp[fp.source] = stamp;
    beta[fp.source] = 0.0;
    heap.assign(1, {0.0, fp.source});
    heap_pos[fp.source] = 0;
  }

  // Settles the next node and appends it to `fp.visits`; once the frontier
  // drains, marks `fp` exhausted and returns false.
  bool Settle(SearchFootprint& fp) {
    if (heap.empty()) {
      fp.exhausted = true;
      return false;
    }
    const auto [d, u] = heap.front();
    heap.front() = heap.back();
    heap.pop_back();
    if (!heap.empty()) SiftDown(0);
    visit_stamp[u] = stamp;
    const Seconds ubeta = beta[u];
    fp.visits.push_back(u);

    for (EdgeId e : net.OutEdges(u)) {
      const NodeId v = net.edge_head(e);
      if (visit_stamp[v] == stamp) continue;
      const Seconds edge_beta = net.EdgeTime(e, slot);
      const Seconds nbeta = ubeta + edge_beta;
      if (nbeta > max_first_mile) continue;
      const bool labelled = label_stamp[v] == stamp;
      if (angular && !labelled) {
        heading[v] = AngularDistanceWithBearing(*source_pos, *dest_pos,
                                                theta_dest,
                                                net.node_position(v));
      }
      double edge_alpha = gamma * edge_beta / max_beta;
      if (angular) edge_alpha += (1.0 - gamma) * heading[v];
      const double nd = d + edge_alpha;
      if (!labelled) {
        label_stamp[v] = stamp;
        beta[v] = nbeta;
        heap.push_back({nd, v});
        SiftUp(heap.size() - 1);
      } else if (nd < heap[heap_pos[v]].alpha) {
        beta[v] = nbeta;
        heap[heap_pos[v]].alpha = nd;
        SiftUp(heap_pos[v]);
      }
    }
    return true;
  }

 private:
  // std::pair's operator< on (α, node).
  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    return a.alpha < b.alpha || (!(b.alpha < a.alpha) && a.node < b.node);
  }

  void Place(std::size_t i, const HeapEntry& entry) {
    heap[i] = entry;
    heap_pos[entry.node] = static_cast<std::uint32_t>(i);
  }

  void SiftUp(std::size_t i) {
    const HeapEntry entry = heap[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!Before(entry, heap[parent])) break;
      Place(i, heap[parent]);
      i = parent;
    }
    Place(i, entry);
  }

  void SiftDown(std::size_t i) {
    const HeapEntry entry = heap[i];
    const std::size_t n = heap.size();
    while (true) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + kArity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (Before(heap[c], heap[best])) best = c;
      }
      if (!Before(heap[best], entry)) break;
      Place(i, heap[best]);
      i = best;
    }
    Place(i, entry);
  }
};

// Incremental sparsified construction (Alg. 2 through the EdgeCache): each
// vehicle's column replays its recorded search footprint — bit-identical to
// re-running the search, since the visit order never depends on the batch
// set or k — and runs the search live only when the footprint is stale or
// ends short of degree k.
FoodGraph BuildIncrementalSparsified(const DistanceOracle& oracle,
                                     const Config& config,
                                     const FoodGraphOptions& options,
                                     const std::vector<Batch>& batches,
                                     const std::vector<VehicleSnapshot>&
                                         vehicles,
                                     Seconds now, ThreadPool* pool,
                                     EdgeCache& cache) {
  const RoadNetwork& net = oracle.network();
  FoodGraph graph(batches.size(), vehicles.size(), config.rejection_penalty);
  if (batches.empty() || vehicles.empty()) return graph;
  const int k = DeriveK(config, options, batches.size(), vehicles.size());
  const std::vector<VehicleCacheEntry*> entries = cache.BeginWindow(vehicles);
  const int slot = HourSlot(now);
  const int shards = std::max(ShardCount(pool, vehicles.size()), 1);
  cache.PrepareMemos(shards, slot);

  StartIndex starts = BuildStartIndex(batches);
  if (starts.empty()) return graph;
  starts.BuildFlat(net.num_nodes());

  const Seconds max_beta = net.MaxEdgeTime(slot);
  const double gamma = options.angular ? config.gamma : 1.0;

  auto fill_column = [&](std::size_t j, LiveSearch& search, DurationMemo& memo,
                         ShardCounters& local) {
    const VehicleSnapshot& vehicle = vehicles[j];
    SearchFootprint& fp = entries[j]->footprint;
    const bool replay =
        fp.Matches(vehicle.location, vehicle.next_destination, slot);
    if (replay) {
      ++local.footprint_replays;
    } else {
      fp.Reset(vehicle.location, vehicle.next_destination, slot);
      ++local.footprint_rebuilds;
    }

    LazyBase base;
    int degree = 0;
    std::size_t next_visit = 0;
    bool live = false;  // `search` runs in step with fp.visits
    while (degree < k) {
      if (next_visit == fp.visits.size()) {
        if (fp.exhausted) break;
        if (!live) {
          // The record ends short of degree k: re-run the search from the
          // source. Its first visits re-settle bit-identically to the ones
          // this window already scanned, so they are re-recorded, not
          // re-scanned. A replay shortfall counts as a rebuild.
          if (replay) ++local.footprint_rebuilds;
          fp.visits.clear();
          search.Start(fp);
          while (fp.visits.size() < next_visit && search.Settle(fp)) {
          }
          FM_CHECK_EQ(fp.visits.size(), next_visit);
          live = true;
        }
        if (!search.Settle(fp)) break;
      }
      const NodeId node = fp.visits[next_visit++];
      ++local.nodes_expanded;

      // No first-mile test: Settle labels a node only while its β is within
      // max_first_mile, which Config::Validate keeps positive for the
      // source. The scratch search keeps the explicit test.
      const auto [row_begin, row_end] = starts.RowsAt(node);
      for (const std::uint32_t* it = row_begin; it != row_end; ++it) {
        const std::size_t i = *it;
        if (degree >= k) break;
        if (!SatisfiesCapacity(config, batches[i], vehicle)) continue;
        ++local.mcost_evaluations;
        graph.cost.set(i, j, PairWeight(oracle, config, batches[i], vehicle,
                                        now, base, &memo));
        ++degree;
      }
    }
  };

  std::vector<ShardCounters> counters(static_cast<std::size_t>(shards));
  ParallelForShards(
      pool, vehicles.size(),
      [&](int shard, std::size_t begin, std::size_t end) {
        LiveSearch search(net, slot, max_beta, gamma, options.angular,
                          config.max_first_mile);
        DurationMemo& memo = cache.memo_for_shard(shard);
        ShardCounters& local = counters[static_cast<std::size_t>(shard)];
        for (std::size_t j = begin; j < end; ++j) {
          fill_column(j, search, memo, local);
        }
      });
  ReduceCounters(counters, graph, &cache.stats());
  return graph;
}

// Incremental full construction: the scratch fill with SP legs served by the
// shard's DurationMemo. Sharded over columns (vehicles) — not the rows the
// scratch builder shards — so each vehicle's legs hit one memo and its base
// cost is a column-local; the fill set and counters are identical either
// way.
FoodGraph BuildIncrementalFull(const DistanceOracle& oracle,
                               const Config& config,
                               const std::vector<Batch>& batches,
                               const std::vector<VehicleSnapshot>& vehicles,
                               Seconds now, ThreadPool* pool,
                               EdgeCache& cache) {
  FoodGraph graph(batches.size(), vehicles.size(), config.rejection_penalty);
  if (batches.empty() || vehicles.empty()) return graph;

  const int shards = std::max(ShardCount(pool, vehicles.size()), 1);
  cache.PrepareMemos(shards, HourSlot(now));
  std::vector<ShardCounters> counters(static_cast<std::size_t>(shards));
  ParallelForShards(
      pool, vehicles.size(),
      [&](int shard, std::size_t begin, std::size_t end) {
        ShardCounters& local = counters[static_cast<std::size_t>(shard)];
        DurationMemo& memo = cache.memo_for_shard(shard);
        for (std::size_t j = begin; j < end; ++j) {
          const VehicleSnapshot& vehicle = vehicles[j];
          LazyBase base;
          for (std::size_t i = 0; i < batches.size(); ++i) {
            if (batches[i].cost == kInfiniteTime) continue;
            if (!SatisfiesCapacity(config, batches[i], vehicle)) continue;
            ++local.mcost_evaluations;
            graph.cost.set(i, j, PairWeight(oracle, config, batches[i],
                                            vehicle, now, base, &memo));
          }
        }
      });
  ReduceCounters(counters, graph, &cache.stats());
  return graph;
}

}  // namespace

bool SatisfiesCapacity(const Config& config, const Batch& batch,
                       const VehicleSnapshot& vehicle) {
  const int orders_after =
      vehicle.TotalAssignedOrders() + static_cast<int>(batch.orders.size());
  if (orders_after > config.max_orders_per_vehicle) return false;
  const int items_after = vehicle.TotalAssignedItems() + batch.TotalItemCount();
  return items_after <= config.max_items_per_vehicle;
}

FoodGraph BuildFullFoodGraph(const DistanceOracle& oracle,
                             const Config& config,
                             const std::vector<Batch>& batches,
                             const std::vector<VehicleSnapshot>& vehicles,
                             Seconds now, ThreadPool* pool) {
  FoodGraph graph(batches.size(), vehicles.size(), config.rejection_penalty);
  std::vector<ShardCounters> counters(
      static_cast<std::size_t>(std::max(ShardCount(pool, batches.size()), 1)));
  // Rows are sharded: batch i's row is written only by the shard owning i.
  ParallelForShards(
      pool, batches.size(),
      [&](int shard, std::size_t begin, std::size_t end) {
        ShardCounters& local = counters[static_cast<std::size_t>(shard)];
        // Base-route costs per vehicle, shared down the shard's rows.
        std::unordered_map<std::size_t, LazyBase> bases;
        for (std::size_t i = begin; i < end; ++i) {
          if (batches[i].cost == kInfiniteTime) continue;  // unroutable batch
          for (std::size_t j = 0; j < vehicles.size(); ++j) {
            if (!SatisfiesCapacity(config, batches[i], vehicles[j])) continue;
            ++local.mcost_evaluations;
            graph.cost.set(i, j,
                           PairWeight(oracle, config, batches[i], vehicles[j],
                                      now, bases[j], nullptr));
          }
        }
      });
  ReduceCounters(counters, graph);
  return graph;
}

FoodGraph BuildSparsifiedFoodGraph(const DistanceOracle& oracle,
                                   const Config& config,
                                   const FoodGraphOptions& options,
                                   const std::vector<Batch>& batches,
                                   const std::vector<VehicleSnapshot>& vehicles,
                                   Seconds now, ThreadPool* pool) {
  const RoadNetwork& net = oracle.network();
  FoodGraph graph(batches.size(), vehicles.size(), config.rejection_penalty);
  if (batches.empty() || vehicles.empty()) return graph;

  const int k = DeriveK(config, options, batches.size(), vehicles.size());

  // VΠ: candidate first-pickup nodes and their batches (§IV-C1). Built
  // serially, read-only during the parallel phase.
  const StartIndex starts = BuildStartIndex(batches);
  if (starts.empty()) return graph;

  const int slot = HourSlot(now);
  const Seconds max_beta = net.MaxEdgeTime(slot);
  const double gamma = options.angular ? config.gamma : 1.0;

  // Per-vehicle best-first search (Alg. 2 lines 2–20). Vehicle j's search is
  // independent of every other vehicle and writes only column j, so vehicles
  // are sharded across the pool; scratch arrays are per-shard.
  using QueueEntry = std::pair<double, NodeId>;  // (α-distance, node)
  auto search_vehicle = [&](std::size_t j, SearchScratch& scratch,
                            ShardCounters& local) {
    std::vector<double>& alpha_dist = scratch.alpha_dist;
    std::vector<Seconds>& beta_dist = scratch.beta_dist;
    std::vector<bool>& visited = scratch.visited;
    const VehicleSnapshot& vehicle = vehicles[j];
    const NodeId source = vehicle.location;
    const LatLon& source_pos = net.node_position(source);
    const LatLon& dest_pos = net.node_position(vehicle.next_destination);

    std::fill(alpha_dist.begin(), alpha_dist.end(),
              std::numeric_limits<double>::infinity());
    std::fill(beta_dist.begin(), beta_dist.end(), kInfiniteTime);
    std::fill(visited.begin(), visited.end(), false);
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>>
        queue;
    alpha_dist[source] = 0.0;
    beta_dist[source] = 0.0;
    queue.push({0.0, source});

    LazyBase base;
    int degree = 0;
    while (!queue.empty() && degree < k) {
      const auto [d, u] = queue.top();
      queue.pop();
      if (visited[u]) continue;
      visited[u] = true;
      ++local.nodes_expanded;

      // Add true edges to every batch whose route starts at u (line 13-15).
      const auto [row_begin, row_end] = starts.RowsAt(u);
      for (const std::uint32_t* it = row_begin; it != row_end; ++it) {
        const std::size_t i = *it;
        if (degree >= k) break;
        if (!SatisfiesCapacity(config, batches[i], vehicle)) continue;
        // Beyond the promised first-mile bound no true edge is needed;
        // β-distance along the search tree is a (close) upper proxy.
        if (beta_dist[u] > config.max_first_mile) continue;
        ++local.mcost_evaluations;
        graph.cost.set(i, j,
                       PairWeight(oracle, config, batches[i], vehicle, now,
                                  base, nullptr));
        ++degree;
      }

      // Expand neighbours with the vehicle-sensitive weight α (Eq. 8).
      for (EdgeId e : net.OutEdges(u)) {
        const NodeId v = net.edge_head(e);
        if (visited[v]) continue;
        const Seconds beta = net.EdgeTime(e, slot);
        // Bound exploration by the promised first-mile limit: nodes beyond
        // it can only yield Ω edges anyway.
        const Seconds nbeta = beta_dist[u] + beta;
        if (nbeta > config.max_first_mile) continue;
        double alpha = gamma * beta / max_beta;
        if (options.angular) {
          alpha += (1.0 - gamma) *
                   AngularDistance(source_pos, dest_pos, net.node_position(v));
        }
        const double nd = d + alpha;
        if (nd < alpha_dist[v]) {
          alpha_dist[v] = nd;
          beta_dist[v] = nbeta;
          queue.push({nd, v});
        }
      }
    }
    // Batches not discovered keep their Ω initialization (line 19).
  };

  std::vector<ShardCounters> counters(
      static_cast<std::size_t>(std::max(ShardCount(pool, vehicles.size()), 1)));
  ParallelForShards(pool, vehicles.size(),
                    [&](int shard, std::size_t begin, std::size_t end) {
                      SearchScratch scratch(net.num_nodes());
                      ShardCounters& local =
                          counters[static_cast<std::size_t>(shard)];
                      for (std::size_t j = begin; j < end; ++j) {
                        search_vehicle(j, scratch, local);
                      }
                    });
  ReduceCounters(counters, graph);
  return graph;
}

FoodGraph BuildFoodGraph(const DistanceOracle& oracle, const Config& config,
                         const FoodGraphOptions& options,
                         const std::vector<Batch>& batches,
                         const std::vector<VehicleSnapshot>& vehicles,
                         Seconds now, ThreadPool* pool, EdgeCache* cache) {
  if (cache != nullptr) {
    if (options.best_first) {
      return BuildIncrementalSparsified(oracle, config, options, batches,
                                        vehicles, now, pool, *cache);
    }
    return BuildIncrementalFull(oracle, config, batches, vehicles, now, pool,
                                *cache);
  }
  if (options.best_first) {
    return BuildSparsifiedFoodGraph(oracle, config, options, batches, vehicles,
                                    now, pool);
  }
  return BuildFullFoodGraph(oracle, config, batches, vehicles, now, pool);
}

}  // namespace fm
