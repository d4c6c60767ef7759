#include "geo/geo.h"

#include <cmath>

namespace fm {

double DegToRad(double degrees) { return degrees * M_PI / 180.0; }
double RadToDeg(double radians) { return radians * 180.0 / M_PI; }

Meters Haversine(const LatLon& a, const LatLon& b) {
  const double phi1 = DegToRad(a.lat_deg);
  const double phi2 = DegToRad(b.lat_deg);
  const double dphi = DegToRad(b.lat_deg - a.lat_deg);
  const double dlambda = DegToRad(b.lon_deg - a.lon_deg);
  const double sin_dphi = std::sin(dphi / 2.0);
  const double sin_dlambda = std::sin(dlambda / 2.0);
  const double h = sin_dphi * sin_dphi +
                   std::cos(phi1) * std::cos(phi2) * sin_dlambda * sin_dlambda;
  return 2.0 * kEarthRadius * std::asin(std::fmin(1.0, std::sqrt(h)));
}

double Bearing(const LatLon& s, const LatLon& t) {
  const double phi_s = DegToRad(s.lat_deg);
  const double phi_t = DegToRad(t.lat_deg);
  const double dlambda = DegToRad(t.lon_deg - s.lon_deg);
  const double x = std::cos(phi_t) * std::sin(dlambda);
  const double y = std::cos(phi_s) * std::sin(phi_t) -
                   std::sin(phi_s) * std::cos(phi_t) * std::cos(dlambda);
  double theta = std::atan2(x, y);
  if (theta < 0) theta += 2.0 * M_PI;
  return theta;
}

double AngularDistanceWithBearing(const LatLon& source, const LatLon& dest,
                                  double theta_dest, const LatLon& candidate) {
  if (source == dest || source == candidate) return 0.0;
  const double theta_candidate = Bearing(source, candidate);
  return (1.0 - std::cos(theta_dest - theta_candidate)) / 2.0;
}

double AngularDistance(const LatLon& source, const LatLon& dest,
                       const LatLon& candidate) {
  return AngularDistanceWithBearing(source, dest, Bearing(source, dest),
                                    candidate);
}

}  // namespace fm
