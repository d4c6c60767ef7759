#include "graph/hub_labels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace fm {
namespace {

using QueueEntry = std::pair<Seconds, NodeId>;

// One node's label while it is built, already in the index's format: rank
// deltas in ascending (construction) order, distances alongside, and the
// last rank for appending. Split so the prune scan streams 2-byte deltas.
struct BuildLabel {
  std::vector<std::uint16_t> deltas;
  std::vector<Seconds> dists;
  std::uint32_t last_rank = 0;
};

constexpr std::uint32_t kMaxDelta = std::numeric_limits<std::uint16_t>::max();

// Appends hub `rank` at distance `d`, first bridging a gap above kMaxDelta
// with fillers (delta kMaxDelta, distance +inf); returns how many it added.
std::size_t Append(BuildLabel& label, std::uint32_t rank, Seconds d) {
  std::size_t fillers = 0;
  std::uint32_t gap = rank - label.last_rank;
  for (; gap > kMaxDelta; gap -= kMaxDelta, ++fillers) {
    label.deltas.push_back(kMaxDelta);
    label.dists.push_back(kInfiniteTime);
  }
  label.deltas.push_back(static_cast<std::uint16_t>(gap));
  label.dists.push_back(d);
  label.last_rank = rank;
  return fillers;
}

// One direction's arcs at one slot, CSR by node: (neighbour, travel time)
// side by side rather than edge ids into the 24-slot time table.
struct SlotArcs {
  SlotArcs(const RoadNetwork& net, int slot, bool forward) {
    offsets.push_back(0);
    for (NodeId u = 0; u < net.num_nodes(); ++u) {
      for (EdgeId e : forward ? net.OutEdges(u) : net.InEdges(u)) {
        arcs.push_back({forward ? net.edge_head(e) : net.edge_tail(e),
                        net.EdgeTime(e, slot)});
      }
      offsets.push_back(arcs.size());
    }
  }

  std::vector<std::size_t> offsets;
  std::vector<std::pair<NodeId, Seconds>> arcs;
};

// Concatenates per-node labels into offset-indexed delta and distance
// arrays, freeing each node's build vectors once copied.
void Flatten(std::vector<BuildLabel>& labels,
             std::vector<std::uint32_t>& offsets,
             std::vector<std::uint16_t>& deltas, std::vector<Seconds>& dists) {
  std::size_t total = 0;
  for (const BuildLabel& label : labels) total += label.deltas.size();
  FM_CHECK_LE(total, std::numeric_limits<std::uint32_t>::max());
  deltas.reserve(total);
  dists.reserve(total);
  offsets.reserve(labels.size() + 1);
  offsets.assign(1, 0);
  for (BuildLabel& label : labels) {
    deltas.insert(deltas.end(), label.deltas.begin(), label.deltas.end());
    dists.insert(dists.end(), label.dists.begin(), label.dists.end());
    offsets.push_back(static_cast<std::uint32_t>(deltas.size()));
    label = BuildLabel();
  }
}

}  // namespace

HubLabels HubLabels::Build(const RoadNetwork& net, int slot) {
  const std::size_t n = net.num_nodes();
  FM_CHECK_GT(n, 0u);

  // Hub order: geometric nested dissection. Road networks (and the grid
  // cities the generator produces) have small geometric separators; putting
  // separator nodes first makes them hubs for all paths crossing the cut,
  // which keeps labels near O(√n) — degree ordering is useless on grids
  // where every interior node has the same degree.
  std::vector<NodeId> order;
  order.reserve(n);
  {
    std::vector<NodeId> all(n);
    std::iota(all.begin(), all.end(), 0);
    // Breadth-first over recursive bisections: each region contributes its
    // separator, then splits into two halves.
    std::vector<std::vector<NodeId>> queue;
    queue.push_back(std::move(all));
    std::size_t head = 0;
    while (head < queue.size()) {
      std::vector<NodeId> region = std::move(queue[head++]);
      if (region.size() <= 8) {
        for (NodeId u : region) order.push_back(u);
        continue;
      }
      double min_lat = 1e18, max_lat = -1e18, min_lon = 1e18, max_lon = -1e18;
      for (NodeId u : region) {
        const LatLon& p = net.node_position(u);
        min_lat = std::min(min_lat, p.lat_deg);
        max_lat = std::max(max_lat, p.lat_deg);
        min_lon = std::min(min_lon, p.lon_deg);
        max_lon = std::max(max_lon, p.lon_deg);
      }
      const bool split_lat = (max_lat - min_lat) >= (max_lon - min_lon);
      auto coord = [&](NodeId u) {
        const LatLon& p = net.node_position(u);
        return split_lat ? p.lat_deg : p.lon_deg;
      };
      std::vector<NodeId> sorted = region;
      std::sort(sorted.begin(), sorted.end(), [&](NodeId a, NodeId b) {
        return coord(a) < coord(b);
      });
      const double median = coord(sorted[sorted.size() / 2]);
      // Separator thickness ≈ one grid cell: extent / √|region| on the
      // split axis.
      const double extent =
          split_lat ? (max_lat - min_lat) : (max_lon - min_lon);
      const double eps =
          0.6 * extent / std::sqrt(static_cast<double>(region.size()));
      std::vector<NodeId> separator, low, high;
      for (NodeId u : sorted) {
        const double c = coord(u);
        if (std::abs(c - median) <= eps) {
          separator.push_back(u);
        } else if (c < median) {
          low.push_back(u);
        } else {
          high.push_back(u);
        }
      }
      // Degenerate splits (co-located nodes): fall back to plain order.
      if (low.empty() && high.empty()) {
        for (NodeId u : sorted) order.push_back(u);
        continue;
      }
      for (NodeId u : separator) order.push_back(u);
      if (!low.empty()) queue.push_back(std::move(low));
      if (!high.empty()) queue.push_back(std::move(high));
    }
  }
  FM_CHECK_EQ(order.size(), n);

  std::vector<BuildLabel> out_labels(n);
  std::vector<BuildLabel> in_labels(n);
  const SlotArcs out_arcs(net, slot, /*forward=*/true);
  const SlotArcs in_arcs(net, slot, /*forward=*/false);
  std::vector<Seconds> dist(n, kInfiniteTime);
  std::vector<NodeId> touched;
  std::vector<Seconds> hub_dist(n, kInfiniteTime);
  std::vector<QueueEntry> heap;
  const std::greater<QueueEntry> later;
  std::size_t fillers = 0;

  // Pruned Dijkstra from the hub of rank `rank`: forward fills the in-labels
  // of nodes it reaches, backward the out-labels of nodes reaching it. Prune
  // sums run out + in, as in Query; push_heap/pop_heap with std::greater pop
  // in std::priority_queue's order. Every label walk keeps a running rank.
  auto search = [&](std::uint32_t rank, auto forward) {
    const NodeId hub = order[rank];
    const SlotArcs& arcs = forward ? out_arcs : in_arcs;
    const BuildLabel& hub_label = forward ? out_labels[hub] : in_labels[hub];
    std::vector<BuildLabel>& labels = forward ? in_labels : out_labels;
    std::uint32_t r = 0;
    for (std::size_t i = 0; i < hub_label.deltas.size(); ++i) {
      r += hub_label.deltas[i];
      hub_dist[r] = hub_label.dists[i];
    }
    dist[hub] = 0.0;
    touched.push_back(hub);
    heap.push_back({0.0, hub});
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const auto [d, u] = heap.back();
      heap.pop_back();
      if (d > dist[u]) continue;
      // Prune: an earlier hub already certifies a path of length <= d.
      BuildLabel& label = labels[u];
      std::uint32_t label_rank = 0;
      std::size_t i = 0;
      for (; i < label.deltas.size(); ++i) {
        label_rank += label.deltas[i];
        const Seconds h = hub_dist[label_rank];
        if ((forward ? h + label.dists[i] : label.dists[i] + h) <= d) break;
      }
      if (i < label.deltas.size()) continue;
      fillers += Append(label, rank, d);
      for (std::size_t a = arcs.offsets[u]; a < arcs.offsets[u + 1]; ++a) {
        const auto [v, time] = arcs.arcs[a];
        const Seconds nd = d + time;
        if (nd < dist[v]) {
          if (dist[v] == kInfiniteTime) touched.push_back(v);
          dist[v] = nd;
          heap.push_back({nd, v});
          std::push_heap(heap.begin(), heap.end(), later);
        }
      }
    }
    for (NodeId u : touched) dist[u] = kInfiniteTime;
    touched.clear();
    r = 0;
    for (std::uint16_t delta : hub_label.deltas) {
      r += delta;
      hub_dist[r] = kInfiniteTime;
    }
  };
  for (std::uint32_t rank = 0; rank < n; ++rank) {
    search(rank, /*forward=*/std::true_type());
    search(rank, /*forward=*/std::false_type());
  }

  HubLabels labels;
  labels.num_nodes_ = n;
  labels.fillers_ = fillers;
  Flatten(out_labels, labels.out_offsets_, labels.out_deltas_,
          labels.out_dists_);
  Flatten(in_labels, labels.in_offsets_, labels.in_deltas_, labels.in_dists_);
  return labels;
}

Seconds HubLabels::Query(NodeId s, NodeId t) const {
  FM_CHECK_LT(s, num_nodes_);
  FM_CHECK_LT(t, num_nodes_);
  if (s == t) return 0.0;
  std::uint32_t i = out_offsets_[s];
  const std::uint32_t i_end = out_offsets_[s + 1];
  std::uint32_t j = in_offsets_[t];
  const std::uint32_t j_end = in_offsets_[t + 1];
  Seconds best = kInfiniteTime;
  if (i == i_end || j == j_end) return best;
  // Running hub ranks of entries i and j.
  std::uint32_t ri = out_deltas_[i];
  std::uint32_t rj = in_deltas_[j];
  while (true) {
    if (ri == rj) {
      const Seconds d = out_dists_[i] + in_dists_[j];
      if (d < best) best = d;
      if (++i == i_end || ++j == j_end) break;
      ri += out_deltas_[i];
      rj += in_deltas_[j];
    } else if (ri < rj) {
      if (++i == i_end) break;
      ri += out_deltas_[i];
    } else {
      if (++j == j_end) break;
      rj += in_deltas_[j];
    }
  }
  return best;
}

std::size_t HubLabels::TotalLabelEntries() const {
  return out_deltas_.size() + in_deltas_.size() - fillers_;
}

std::size_t HubLabels::MemoryBytes() const {
  constexpr std::size_t kEntryBytes = sizeof(std::uint16_t) + sizeof(Seconds);
  return sizeof(std::uint32_t) * (out_offsets_.size() + in_offsets_.size()) +
         kEntryBytes * (out_deltas_.size() + in_deltas_.size());
}

double HubLabels::AverageLabelSize() const {
  if (num_nodes_ == 0) return 0.0;
  return static_cast<double>(TotalLabelEntries()) /
         static_cast<double>(num_nodes_);
}

}  // namespace fm
