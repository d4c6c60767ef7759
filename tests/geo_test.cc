#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geo/geo.h"

namespace fm {
namespace {

constexpr double kPi = M_PI;

TEST(HaversineTest, ZeroForIdenticalPoints) {
  LatLon p{12.97, 77.59};
  EXPECT_DOUBLE_EQ(Haversine(p, p), 0.0);
}

TEST(HaversineTest, OneDegreeLatitudeIsAbout111Km) {
  LatLon a{0.0, 0.0};
  LatLon b{1.0, 0.0};
  EXPECT_NEAR(Haversine(a, b), 111194.9, 50.0);
}

TEST(HaversineTest, SymmetricInArguments) {
  LatLon a{12.9, 77.5};
  LatLon b{13.1, 77.8};
  EXPECT_DOUBLE_EQ(Haversine(a, b), Haversine(b, a));
}

TEST(HaversineTest, TriangleInequalityOnRandomPoints) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    LatLon a{rng.UniformRange(-60, 60), rng.UniformRange(-170, 170)};
    LatLon b{rng.UniformRange(-60, 60), rng.UniformRange(-170, 170)};
    LatLon c{rng.UniformRange(-60, 60), rng.UniformRange(-170, 170)};
    EXPECT_LE(Haversine(a, c), Haversine(a, b) + Haversine(b, c) + 1e-6);
  }
}

TEST(HaversineTest, LongitudeShrinkWithLatitude) {
  // One longitude degree is shorter at 60° latitude than at the equator.
  const Meters at_equator = Haversine({0, 0}, {0, 1});
  const Meters at_60 = Haversine({60, 0}, {60, 1});
  EXPECT_NEAR(at_60 / at_equator, 0.5, 0.01);
}

TEST(BearingTest, CardinalDirections) {
  LatLon origin{10.0, 20.0};
  EXPECT_NEAR(Bearing(origin, {11.0, 20.0}), 0.0, 0.02);           // north
  EXPECT_NEAR(Bearing(origin, {10.0, 21.0}), kPi / 2.0, 0.02);     // east
  EXPECT_NEAR(Bearing(origin, {9.0, 20.0}), kPi, 0.02);            // south
  EXPECT_NEAR(Bearing(origin, {10.0, 19.0}), 3 * kPi / 2.0, 0.02); // west
}

TEST(BearingTest, RangeIsZeroToTwoPi) {
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    LatLon s{rng.UniformRange(-60, 60), rng.UniformRange(-170, 170)};
    LatLon t{rng.UniformRange(-60, 60), rng.UniformRange(-170, 170)};
    const double theta = Bearing(s, t);
    EXPECT_GE(theta, 0.0);
    EXPECT_LT(theta, 2 * kPi);
  }
}

TEST(AngularDistanceTest, ZeroWhenCandidateIsDest) {
  LatLon s{12.9, 77.5};
  LatLon d{13.0, 77.6};
  EXPECT_NEAR(AngularDistance(s, d, d), 0.0, 1e-9);
}

TEST(AngularDistanceTest, OneWhenDiametricallyOpposite) {
  LatLon s{10.0, 20.0};
  LatLon d{10.5, 20.0};   // due north
  LatLon u{9.5, 20.0};    // due south
  EXPECT_NEAR(AngularDistance(s, d, u), 1.0, 1e-3);
}

TEST(AngularDistanceTest, HalfWhenPerpendicular) {
  LatLon s{0.0, 20.0};
  LatLon d{0.5, 20.0};  // north
  LatLon u{0.0, 20.5};  // east
  EXPECT_NEAR(AngularDistance(s, d, u), 0.5, 5e-3);
}

TEST(AngularDistanceTest, AlwaysInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    LatLon s{rng.UniformRange(-60, 60), rng.UniformRange(-170, 170)};
    LatLon d{rng.UniformRange(-60, 60), rng.UniformRange(-170, 170)};
    LatLon u{rng.UniformRange(-60, 60), rng.UniformRange(-170, 170)};
    const double a = AngularDistance(s, d, u);
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

TEST(AngularDistanceTest, StationaryVehicleHasNoPenalty) {
  LatLon s{12.9, 77.5};
  LatLon u{13.0, 77.6};
  EXPECT_DOUBLE_EQ(AngularDistance(s, s, u), 0.0);
}

// The precomputed-heading form is what the live FOODGRAPH search uses; it
// must match AngularDistance bit for bit, degenerate branches included.
TEST(AngularDistanceTest, PrecomputedBearingIsBitIdentical) {
  const auto expect_same = [](const LatLon& s, const LatLon& d,
                              const LatLon& u) {
    EXPECT_EQ(AngularDistanceWithBearing(s, d, Bearing(s, d), u),
              AngularDistance(s, d, u));
  };
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    LatLon s{rng.UniformRange(-60, 60), rng.UniformRange(-170, 170)};
    LatLon d{rng.UniformRange(-60, 60), rng.UniformRange(-170, 170)};
    LatLon u{rng.UniformRange(-60, 60), rng.UniformRange(-170, 170)};
    expect_same(s, d, u);
    // The formula itself, spelled out once here as the reference.
    EXPECT_EQ(AngularDistance(s, d, u),
              (1.0 - std::cos(Bearing(s, d) - Bearing(s, u))) / 2.0);
    expect_same(s, s, u);  // source == dest
    expect_same(s, d, s);  // source == candidate
    expect_same(s, s, s);
    EXPECT_EQ(AngularDistanceWithBearing(s, s, Bearing(s, s), u), 0.0);
    EXPECT_EQ(AngularDistanceWithBearing(s, d, Bearing(s, d), s), 0.0);
  }
}

TEST(DegRadTest, RoundTrip) {
  for (double d : {-180.0, -90.0, 0.0, 45.0, 180.0}) {
    EXPECT_NEAR(RadToDeg(DegToRad(d)), d, 1e-12);
  }
}

}  // namespace
}  // namespace fm
