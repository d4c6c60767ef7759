// Exact 2-hop hub labeling for quickest-path queries at one hour slot.
//
// This plays the role of the hierarchical hub labeling index of Delling et
// al. [18] in the paper: all benchmarked algorithms answer SP(u, v, t)
// through this index instead of running Dijkstra per query.
//
// Construction is pruned landmark labeling (Akiba et al.): hubs are ranked
// by geometric nested dissection (separators before the halves they split);
// for each hub a forward and a backward pruned Dijkstra add it to the
// in-labels (resp. out-labels) of every node whose labels cannot already
// prove an equal-or-shorter distance. Each search first scatters the hub's
// opposite-side label into an n-sized `hub_dist` array indexed by rank, so
// the prune test is one pass over the popped node's label. Queries are a
// merge-join over labels sorted by hub rank. Distances are exact (verified
// against Dijkstra in tests).
//
// Entries are 10 B, in the build and in the index: a 16-bit delta to the
// previous entry's hub rank (to 0 for the first entry) plus a double
// distance, so every label walk keeps a running rank. A rank gap
// above 65 535 is bridged by filler entries of delta 65 535 and distance
// +inf; a filler adds +inf to any sum, so it never lowers a query answer or
// certifies a prune, and labels and answers are independent of the format.
#ifndef FOODMATCH_GRAPH_HUB_LABELS_H_
#define FOODMATCH_GRAPH_HUB_LABELS_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "graph/road_network.h"

namespace fm {

class HubLabels {
 public:
  // Builds the index for `slot` weights. Each heap push relaxes an edge of a
  // labelled node and each pop scans one label: O(Δ·|L|·(L_max + log n)) for
  // |L| entries in all, L_max the longest label and Δ the largest degree.
  static HubLabels Build(const RoadNetwork& net, int slot);

  // Quickest-path travel time s → t; kInfiniteTime if unreachable.
  Seconds Query(NodeId s, NodeId t) const;

  // Total number of (hub, distance) entries across all labels — the usual
  // space/quality measure for a labeling. Fillers are not counted.
  std::size_t TotalLabelEntries() const;

  // Bytes the index holds: offsets, rank deltas and distances, fillers
  // included.
  std::size_t MemoryBytes() const;

  // Average label entries per node (out + in).
  double AverageLabelSize() const;

  std::size_t num_nodes() const { return num_nodes_; }

 private:
  HubLabels() = default;

  std::size_t num_nodes_ = 0;
  std::size_t fillers_ = 0;  // filler entries over both directions
  // Flattened per-node labels split by field, 10 B per entry: node u's
  // out-label is out_deltas_/out_dists_ over [out_offsets_[u],
  // out_offsets_[u + 1]), ranks strictly ascending (construction order
  // guarantees this) and delta-coded from 0; likewise in-labels. Query
  // reads distances only on a rank match.
  std::vector<std::uint32_t> out_offsets_;
  std::vector<std::uint16_t> out_deltas_;
  std::vector<Seconds> out_dists_;
  std::vector<std::uint32_t> in_offsets_;
  std::vector<std::uint16_t> in_deltas_;
  std::vector<Seconds> in_dists_;
};

}  // namespace fm

#endif  // FOODMATCH_GRAPH_HUB_LABELS_H_
