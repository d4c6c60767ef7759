// Stress-scenario model: declarative overlays composed on top of the gen/
// city profiles (gen/profiles.h). A ScenarioSpec does not generate anything
// by itself — ApplyScenario() bakes the demand-side knobs into a derived
// CityProfile, and stress/stress_gen.h turns profile + spec into the
// canonical stamped event stream.
//
// The overlays mirror the production dynamics the paper evaluates on Swiggy
// traces but the synthetic benches never exercised:
//
//   * Zipf-skewed restaurant popularity (paper: a handful of restaurants
//     dominate order volume) — re-draws each order's restaurant from a
//     Zipf(exponent) over restaurant ranks.
//   * Demand-surge windows (the lunch/dinner bimodal peaks, sharpened) —
//     per-slot multipliers folded into the profile's demand shape so
//     ExpectedOrdersPerSlot(overlaid)[s] == base_expected[s] × multiplier.
//   * Flash crowds — a Poisson burst of extra orders pinned to the
//     restaurants within a radius of one hub over a time window.
//   * Shift churn — staggered vehicle groups cycling on/off duty through
//     VehicleStateUpdate / VehicleRetired, with mid-shift position pings
//     (drives the retirement, migration and re-announcement paths).
//   * A city-scale multiplier for 10–100× larger instances (counts scale
//     linearly, the road grid by √multiplier to keep density constant).
//
// A small named registry (`zipf`, `lunch-rush`, `flash-crowd`,
// `shift-change`, `mega-city`, `kitchen-sink`) gives fmserve
// --scenario and bench_stress a shared vocabulary.
#ifndef FOODMATCH_STRESS_SCENARIO_H_
#define FOODMATCH_STRESS_SCENARIO_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "common/types.h"
#include "gen/profiles.h"

namespace fm {

// Multiplies the expected order volume of hour slots [first_slot,
// last_slot] (inclusive, clamped to the day) by `multiplier`.
struct SurgeWindow {
  int first_slot = 12;
  int last_slot = 13;
  double multiplier = 2.0;
};

// A burst of extra orders over [start, end): Poisson arrivals at
// `intensity` × the overlaid profile's mean base order rate across the
// burst window, every order pinned to a restaurant within `radius_m`
// meters (haversine) of hub restaurant `hub` (an index into
// Workload::restaurants, taken modulo its size).
struct FlashCrowd {
  int hub = 0;
  Seconds start = 11.5 * 3600.0;
  Seconds end = 12.5 * 3600.0;
  double intensity = 4.0;
  Meters radius_m = 2000.0;
};

// Staggered on/off-duty cycling for the fleet. Vehicle v belongs to group
// v.id % groups; group g's k-th shift runs
//
//   [on, off) = [start + g·stagger + k·groups·stagger,  on + shift_length)
//
// announced by a VehicleStateUpdate at `on`, retired by a VehicleRetired at
// `off`, with bare position pings every `ping_every` seconds in between
// (each ping dips to on_duty = false with probability `offduty_dip`).
// groups == 0 disables churn: the whole fleet is announced once at the
// stream start, like a batch replay.
struct ShiftPlan {
  int groups = 0;
  Seconds shift_length = 2.0 * 3600.0;
  Seconds stagger = 1.0 * 3600.0;
  Seconds ping_every = 240.0;
  double offduty_dip = 0.0;
  // true: a vehicle keeps its id across shifts (retire → re-announce same
  // id, the id-reuse path); false: shift k announces id + k·fleet_size.
  bool reuse_ids = true;
};

// A full scenario: any combination of the overlays above.
struct ScenarioSpec {
  std::string name;
  // 0 keeps the base generator's hotspot popularity; > 0 re-draws every
  // order's restaurant from Zipf(zipf_exponent) over restaurant ranks.
  double zipf_exponent = 0.0;
  std::vector<SurgeWindow> surges;
  std::vector<FlashCrowd> bursts;
  ShiftPlan shifts;
  // Scales restaurant/vehicle/order counts linearly and the road grid by
  // √multiplier (constant density; 10–100× for the mega-city runs).
  double city_multiplier = 1.0;
};

// The named scenarios, in registry order.
const std::vector<std::string>& StressScenarioNames();

bool IsStressScenario(const std::string& name);

// Looks up a named scenario. Aborts (FM_CHECK) on an unknown name — callers
// gate with IsStressScenario for friendly CLI errors.
ScenarioSpec StressScenario(const std::string& name);

// Bakes the demand-side overlays into a derived profile: surge multipliers
// fold into demand_shape and orders_per_day so that per-slot expected
// volume scales exactly by the multiplier, and city_multiplier scales the
// counts and grid. The derived profile's name is "<base>+<scenario>".
CityProfile ApplyScenario(const CityProfile& base, const ScenarioSpec& spec);

// Inverse-CDF sampler over ranks 0..n-1 with P(rank i) ∝ (i+1)^-exponent.
// exponent 0 degenerates to uniform. Deterministic given the Rng stream.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  std::size_t Sample(Rng& rng) const;

  // Exact P(rank); the distribution tests assert observed frequencies
  // against this.
  double Probability(std::size_t rank) const;

  std::size_t size() const { return cumulative_.size(); }

 private:
  std::vector<double> cumulative_;  // inclusive prefix sums, back() == total
};

}  // namespace fm

#endif  // FOODMATCH_STRESS_SCENARIO_H_
