#include "io/geojson.h"

#include <cstdio>

#include "common/check.h"
#include "common/strings.h"

namespace fm {
namespace {

std::string Coord(const LatLon& p) {
  // GeoJSON order is [lon, lat].
  return StrFormat("[%.6f,%.6f]", p.lon_deg, p.lat_deg);
}

}  // namespace

std::string NetworkToGeoJson(const RoadNetwork& network, int slot) {
  std::string out = R"({"type":"FeatureCollection","features":[)";
  bool first = true;
  for (EdgeId e = 0; e < network.num_edges(); ++e) {
    const NodeId u = network.edge_tail(e);
    const NodeId v = network.edge_head(e);
    // Emit each undirected road once (keep the lower-id direction).
    if (u > v) continue;
    if (!first) out += ',';
    first = false;
    out += StrFormat(
        R"({"type":"Feature","properties":{"edge":%u,"seconds":%.1f,"meters":%.1f},)"
        R"("geometry":{"type":"LineString","coordinates":[%s,%s]}})",
        e, network.EdgeTime(e, slot), network.edge_length(e),
        Coord(network.node_position(u)).c_str(),
        Coord(network.node_position(v)).c_str());
  }
  out += "]}";
  return out;
}

void WriteGeoJsonFile(const std::string& path, const std::string& geojson) {
  FILE* f = std::fopen(path.c_str(), "w");
  FM_CHECK_MSG(f != nullptr, "cannot open for writing: " << path);
  std::fputs(geojson.c_str(), f);
  std::fclose(f);
}

}  // namespace fm
