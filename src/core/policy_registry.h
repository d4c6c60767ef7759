// String-keyed registry of assignment-policy factories.
//
// Tools, benches, and examples construct policies by name instead of
// hard-wiring concrete classes:
//
//   std::unique_ptr<AssignmentPolicy> policy =
//       PolicyRegistry::Global().Create("foodmatch", &oracle, config);
//
// Built-in names (registered the first time Global() is used, so they are
// available even when nothing else references the policy classes):
//
//   "foodmatch"  MatchingPolicy, all options (batching, reshuffle,
//                best-first, angular); honors PolicyOptions::fixed_k
//   "km"         MatchingPolicy, vanilla Kuhn–Munkres baseline
//   "br"         MatchingPolicy, batching & reshuffling only
//   "br-bfs"     MatchingPolicy, B&R + best-first sparsification; honors
//                PolicyOptions::fixed_k
//   "greedy"     GreedyPolicy baseline
//   "reyes"      ReyesPolicy baseline (haversine model over the oracle's
//                network)
//
// Additional policies self-register from any translation unit with a
// file-scope PolicyRegistrar. Note the classic static-library caveat: a
// registrar only runs if its object file is linked, so out-of-library
// policies should live in the binary (or be force-linked) rather than in an
// archive no symbol pulls in.
#ifndef FOODMATCH_CORE_POLICY_REGISTRY_H_
#define FOODMATCH_CORE_POLICY_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/assignment_policy.h"
#include "graph/distance_oracle.h"
#include "model/config.h"

namespace fm {

// Extra knobs a factory may honor; plain defaults reproduce the paper's
// configurations.
struct PolicyOptions {
  // FOODGRAPH degree override for the sparsified matching policies
  // ("foodmatch", "br-bfs"); <= 0 derives k from Config::k_scale.
  int fixed_k = 0;
};

class PolicyRegistry {
 public:
  // Builds a policy. `oracle` must outlive the returned policy and is the
  // distance model the policy decides with (the paper's §V-C haversine
  // fallback is expressed by handing a haversine-backend oracle).
  using Factory = std::function<std::unique_ptr<AssignmentPolicy>(
      const DistanceOracle* oracle, const Config& config,
      const PolicyOptions& options)>;

  // The process-wide registry, with the built-in policies registered on
  // first use.
  static PolicyRegistry& Global();

  // Registers a factory under `name`. Aborts on duplicate registration.
  void Register(const std::string& name, Factory factory);

  bool Contains(const std::string& name) const;

  // Registered names, sorted (the list Create's failure message shows).
  std::vector<std::string> Names() const;

  // "a, b, c" — for error messages and --help texts.
  std::string NamesString() const;

  // Builds the named policy. Aborts with a message listing the registered
  // names if `name` is unknown.
  std::unique_ptr<AssignmentPolicy> Create(
      const std::string& name, const DistanceOracle* oracle,
      const Config& config, const PolicyOptions& options = {}) const;

  // Like Create but returns nullptr on an unknown name, for callers that
  // want to report the error themselves (e.g. CLI flag validation).
  std::unique_ptr<AssignmentPolicy> TryCreate(
      const std::string& name, const DistanceOracle* oracle,
      const Config& config, const PolicyOptions& options = {}) const;

 private:
  PolicyRegistry() = default;

  std::map<std::string, Factory> factories_;
};

// Registers a policy factory at static-initialization time:
//
//   static PolicyRegistrar kMine("mine", [](const DistanceOracle* oracle,
//                                           const Config& config,
//                                           const PolicyOptions& options) {
//     return std::make_unique<MyPolicy>(oracle, config);
//   });
struct PolicyRegistrar {
  PolicyRegistrar(const std::string& name, PolicyRegistry::Factory factory);
};

}  // namespace fm

#endif  // FOODMATCH_CORE_POLICY_REGISTRY_H_
