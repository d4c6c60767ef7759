#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "io/geojson.h"
#include "tests/test_util.h"

namespace fm {
namespace {

TEST(GeoJsonTest, NetworkExportHasOneFeaturePerRoad) {
  RoadNetwork net = testing::LineNetwork(4);  // 3 undirected roads
  const std::string geojson = NetworkToGeoJson(net);
  std::size_t count = 0;
  std::size_t pos = 0;
  while ((pos = geojson.find("\"LineString\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 3u);
  EXPECT_NE(geojson.find("\"FeatureCollection\""), std::string::npos);
  EXPECT_NE(geojson.find("\"seconds\""), std::string::npos);
}

TEST(GeoJsonTest, CoordinatesAreLonLat) {
  RoadNetwork::Builder builder;
  builder.AddNode({12.5, 77.25});
  builder.AddNode({12.6, 77.35});
  builder.AddEdgeConstant(0, 1, 100, 10);
  RoadNetwork net = builder.Build();
  const std::string geojson = NetworkToGeoJson(net);
  // lon first: 77.25 precedes 12.5 in the pair.
  EXPECT_NE(geojson.find("[77.250000,12.500000]"), std::string::npos);
}

TEST(GeoJsonTest, WritesFile) {
  RoadNetwork net = testing::LineNetwork(3);
  const std::string path = ::testing::TempDir() + "/net.geojson";
  WriteGeoJsonFile(path, NetworkToGeoJson(net));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("FeatureCollection"), std::string::npos);
  std::remove(path.c_str());
}

TEST(GeoJsonTest, BalancedBracesAndBrackets) {
  RoadNetwork net = testing::LineNetwork(6);
  int braces = 0;
  int brackets = 0;
  for (char c : NetworkToGeoJson(net)) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

}  // namespace
}  // namespace fm
