#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/rng.h"
#include "gen/city_gen.h"
#include "graph/dijkstra.h"
#include "graph/hub_labels.h"
#include "tests/test_util.h"

namespace fm {
namespace {

TEST(HubLabelsTest, LineNetworkExact) {
  RoadNetwork net = testing::LineNetwork(8, 30.0);
  HubLabels labels = HubLabels::Build(net, 0);
  for (NodeId s = 0; s < net.num_nodes(); ++s) {
    for (NodeId t = 0; t < net.num_nodes(); ++t) {
      EXPECT_DOUBLE_EQ(labels.Query(s, t), PointToPointTime(net, s, t, 0))
          << "s=" << s << " t=" << t;
    }
  }
}

TEST(HubLabelsTest, DetectsUnreachability) {
  RoadNetwork::Builder builder;
  builder.AddNode({0, 0});
  builder.AddNode({0, 0.01});
  builder.AddEdgeConstant(0, 1, 100, 10);
  RoadNetwork net = builder.Build();
  HubLabels labels = HubLabels::Build(net, 0);
  EXPECT_DOUBLE_EQ(labels.Query(0, 1), 10.0);
  EXPECT_EQ(labels.Query(1, 0), kInfiniteTime);
}

TEST(HubLabelsTest, SelfDistanceIsZero) {
  Rng rng(200);
  RoadNetwork net = testing::RandomConnectedNetwork(rng, 30, 60);
  HubLabels labels = HubLabels::Build(net, 0);
  for (NodeId u = 0; u < net.num_nodes(); ++u) {
    EXPECT_DOUBLE_EQ(labels.Query(u, u), 0.0);
  }
}

// Property test: labels agree with Dijkstra on random directed graphs, for
// several seeds and slots.
class HubLabelsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HubLabelsPropertyTest, MatchesDijkstraOnRandomGraph) {
  Rng rng(1000 + GetParam());
  const int n = 30 + GetParam() * 7;
  RoadNetwork net =
      testing::RandomConnectedNetwork(rng, n, 3 * n, /*time_varying=*/true);
  const int slot = GetParam() % kSlotsPerDay;
  HubLabels labels = HubLabels::Build(net, slot);
  for (NodeId s = 0; s < net.num_nodes(); ++s) {
    auto dist = SingleSourceTimes(net, s, slot);
    for (NodeId t = 0; t < net.num_nodes(); ++t) {
      EXPECT_NEAR(labels.Query(s, t), dist[t], 1e-9)
          << "s=" << s << " t=" << t << " slot=" << slot;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HubLabelsPropertyTest,
                         ::testing::Range(0, 8));

TEST(HubLabelsTest, ExactOnGridCity) {
  CityGenParams params;
  params.grid_width = 12;
  params.grid_height = 12;
  params.congestion = UrbanCongestion(2.0);
  Rng rng(42);
  RoadNetwork net = GenerateGridCity(params, rng);
  HubLabels labels = HubLabels::Build(net, 13);  // lunch slot
  Rng pick(43);
  for (int trial = 0; trial < 60; ++trial) {
    NodeId s = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
    NodeId t = static_cast<NodeId>(pick.UniformInt(net.num_nodes()));
    EXPECT_NEAR(labels.Query(s, t), PointToPointTime(net, s, t, 13), 1e-9);
  }
}

TEST(HubLabelsTest, LabelSizeIsReported) {
  RoadNetwork net = testing::LineNetwork(16);
  HubLabels labels = HubLabels::Build(net, 0);
  EXPECT_GT(labels.TotalLabelEntries(), 0u);
  EXPECT_GT(labels.AverageLabelSize(), 0.0);
  EXPECT_EQ(labels.num_nodes(), 16u);
}

// 70 000 nodes along one line, all isolated but for one road pair between
// node 35 000 (in the top separator, so an early hub) and node 69 999 (the
// last rank). Node 69 999's labels, and every label of a node ranked above
// 65 535, bridge a rank gap wider than a 16-bit delta with fillers.
TEST(HubLabelsTest, FillersBridgeWideRankGaps) {
  constexpr int kNodes = 70000;
  constexpr NodeId kHub = 35000;
  constexpr NodeId kLast = kNodes - 1;
  RoadNetwork::Builder builder;
  for (int i = 0; i < kNodes; ++i) builder.AddNode({0.0, i * 0.001});
  builder.AddEdgeConstant(kHub, kLast, 500.0, 42.125);
  builder.AddEdgeConstant(kLast, kHub, 500.0, 17.5);
  HubLabels labels = HubLabels::Build(builder.Build(), 0);

  EXPECT_EQ(labels.Query(kHub, kLast), 42.125);
  EXPECT_EQ(labels.Query(kLast, kHub), 17.5);
  // A misdecoded rank would match some isolated node's own entry.
  for (NodeId u = 0; u < kLast; ++u) {
    if (u == kHub) continue;
    ASSERT_EQ(labels.Query(u, kLast), kInfiniteTime) << "u=" << u;
    ASSERT_EQ(labels.Query(kLast, u), kInfiniteTime) << "u=" << u;
  }
  // Each node's own rank in both labels, plus kHub in both of kLast's.
  const std::size_t entries = 2 * kNodes + 2;
  EXPECT_EQ(labels.TotalLabelEntries(), entries);
  const std::size_t offset_bytes = 2 * (kNodes + 1) * sizeof(std::uint32_t);
  EXPECT_GT(labels.MemoryBytes(), 10 * entries + offset_bytes);
}

// FNV-1a over the bit patterns of every Query(s, t), s-major.
std::uint64_t AllPairsQueryHash(const HubLabels& labels) {
  std::uint64_t hash = kFnv1aOffsetBasis;
  for (NodeId s = 0; s < labels.num_nodes(); ++s) {
    for (NodeId t = 0; t < labels.num_nodes(); ++t) {
      const Seconds d = labels.Query(s, t);
      hash = Fnv1a(&d, sizeof(d), hash);
    }
  }
  return hash;
}

// A w×h bidirectional grid where every edge takes the same time, so
// equal-distance heap pops (and equal-length prune certificates) are
// everywhere.
RoadNetwork UniformGrid(int w, int h) {
  RoadNetwork::Builder builder;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) builder.AddNode({y * 0.004, x * 0.004});
  }
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const NodeId u = static_cast<NodeId>(y * w + x);
      if (x + 1 < w) {
        builder.AddEdgeConstant(u, u + 1, 400.0, 60.0);
        builder.AddEdgeConstant(u + 1, u, 400.0, 60.0);
      }
      if (y + 1 < h) {
        builder.AddEdgeConstant(u, u + w, 400.0, 60.0);
        builder.AddEdgeConstant(u + w, u, 400.0, 60.0);
      }
    }
  }
  return builder.Build();
}

// Golden bit-identity: label sizes and all-pairs query bits are pinned
// exactly, so a rewrite of the build or of the index layout must reproduce
// the index bit for bit. A change to the hub order or to a prune decision
// shows up here even when distances stay exact.
void ExpectGolden(const HubLabels& labels, std::size_t entries,
                  std::uint64_t hash) {
  EXPECT_EQ(labels.TotalLabelEntries(), entries);
  EXPECT_EQ(AllPairsQueryHash(labels), hash);
}

TEST(HubLabelsGoldenTest, GridCitySlots) {
  CityGenParams params;
  params.grid_width = 12;
  params.grid_height = 12;
  params.congestion = UrbanCongestion(2.0);
  Rng rng(42);
  RoadNetwork net = GenerateGridCity(params, rng);
  ExpectGolden(HubLabels::Build(net, 0), 5896u, 0xdcfc32dbdeaed77bull);
  ExpectGolden(HubLabels::Build(net, 8), 5677u, 0xd2f9bb7f15a2fec4ull);
  ExpectGolden(HubLabels::Build(net, 13), 5786u, 0x769609c8b3a162a0ull);
}

TEST(HubLabelsGoldenTest, UniformWeightGrid) {
  RoadNetwork net = UniformGrid(15, 13);
  ExpectGolden(HubLabels::Build(net, 0), 4504u, 0xa0ac3daaf92450a3ull);
}

TEST(HubLabelsGoldenTest, RandomTimeVaryingNetwork) {
  Rng rng(77);
  RoadNetwork net =
      testing::RandomConnectedNetwork(rng, 90, 270, /*time_varying=*/true);
  ExpectGolden(HubLabels::Build(net, 11), 3899u, 0xfd6af09eff0ae481ull);
}

}  // namespace
}  // namespace fm
