// Geographic primitives: lat/lon points, haversine distance, great-circle
// bearing (paper Def. 10) and angular distance (paper §IV-D1).
#ifndef FOODMATCH_GEO_GEO_H_
#define FOODMATCH_GEO_GEO_H_

#include "common/types.h"

namespace fm {

// Mean Earth radius used by the haversine formula.
inline constexpr Meters kEarthRadius = 6371000.0;

// A geographic coordinate in degrees.
struct LatLon {
  double lat_deg = 0.0;
  double lon_deg = 0.0;

  friend bool operator==(const LatLon&, const LatLon&) = default;
};

// Great-circle (haversine) distance between two points, in meters.
Meters Haversine(const LatLon& a, const LatLon& b);

// Bearing Θ(s, t) along the great circle from s to t (paper Def. 10),
// rendered in [0, 2π). By convention 0 is north, π/2 is east.
double Bearing(const LatLon& s, const LatLon& t);

// Angular distance between the direction (source→dest) a vehicle is heading
// and the direction (source→candidate) of a candidate node:
//
//   adist = (1 - cos(Θ(source,dest) - Θ(source,candidate))) / 2
//
// Returns a value in [0, 1]: 0 when the candidate lies dead ahead, 1 when it
// is diametrically behind (paper §IV-D1). If the vehicle is stationary
// (source == dest) or the candidate coincides with the source, the direction
// is undefined and we return 0 (no directional penalty).
double AngularDistance(const LatLon& source, const LatLon& dest,
                       const LatLon& candidate);

// AngularDistance with Θ(source, dest) supplied by the caller, which must pass
// exactly Bearing(source, dest). Bit-identical to AngularDistance (which
// calls it); a search that scores many candidates against one heading pays
// for Θ(source, dest) once.
double AngularDistanceWithBearing(const LatLon& source, const LatLon& dest,
                                  double theta_dest, const LatLon& candidate);

// Degrees → radians.
double DegToRad(double degrees);

// Radians → degrees.
double RadToDeg(double radians);

}  // namespace fm

#endif  // FOODMATCH_GEO_GEO_H_
