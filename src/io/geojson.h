// GeoJSON export for road networks.
//
// Lets users drop a generated city onto geojson.io / kepler.gl for visual
// inspection (fmsim --geojson).
#ifndef FOODMATCH_IO_GEOJSON_H_
#define FOODMATCH_IO_GEOJSON_H_

#include <string>

#include "graph/road_network.h"

namespace fm {

// FeatureCollection of LineStrings, one per directed edge (deduplicated to
// one feature per undirected road), with a "seconds" property holding the
// slot-`slot` travel time.
std::string NetworkToGeoJson(const RoadNetwork& network, int slot = 12);

// Convenience: writes `geojson` to `path`; aborts on IO failure.
void WriteGeoJsonFile(const std::string& path, const std::string& geojson);

}  // namespace fm

#endif  // FOODMATCH_IO_GEOJSON_H_
