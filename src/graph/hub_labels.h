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
  // space/quality measure for a labeling.
  std::size_t TotalLabelEntries() const;

  // Average label entries per node (out + in).
  double AverageLabelSize() const;

  std::size_t num_nodes() const { return num_nodes_; }

 private:
  HubLabels() = default;

  std::size_t num_nodes_ = 0;
  // Flattened per-node labels split by field, 12 B per entry: node u's
  // out-label is out_ranks_/out_dists_ over [out_offsets_[u],
  // out_offsets_[u + 1]), ranks ascending (construction order guarantees
  // this); likewise in-labels. Query reads distances only on a rank match.
  std::vector<std::size_t> out_offsets_;
  std::vector<std::uint32_t> out_ranks_;
  std::vector<Seconds> out_dists_;
  std::vector<std::size_t> in_offsets_;
  std::vector<std::uint32_t> in_ranks_;
  std::vector<Seconds> in_dists_;
};

}  // namespace fm

#endif  // FOODMATCH_GRAPH_HUB_LABELS_H_
