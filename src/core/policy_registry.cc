#include "core/policy_registry.h"

#include <utility>

#include "common/check.h"
#include "core/greedy_policy.h"
#include "core/matching_policy.h"
#include "core/reyes_policy.h"

namespace fm {
namespace {

// Built-ins are registered when Global() constructs the registry — not via
// file-scope registrars — so they exist even when the linker pulls this
// translation unit in solely for PolicyRegistry symbols (a file-scope
// registrar in matching_policy.cc would be dropped from a static archive
// whenever no other symbol references that object file).
void RegisterBuiltins(PolicyRegistry& registry) {
  auto matching = [](MatchingPolicyOptions base, bool honor_fixed_k) {
    return [base, honor_fixed_k](const DistanceOracle* oracle,
                                 const Config& config,
                                 const PolicyOptions& options) {
      MatchingPolicyOptions mo = base;
      if (honor_fixed_k) mo.fixed_k = options.fixed_k;
      return std::make_unique<MatchingPolicy>(oracle, config, mo);
    };
  };
  registry.Register("foodmatch",
                    matching(MatchingPolicyOptions::FoodMatch(), true));
  registry.Register("km", matching(MatchingPolicyOptions::VanillaKM(), false));
  registry.Register(
      "br", matching(MatchingPolicyOptions::BatchingAndReshuffle(), false));
  registry.Register(
      "br-bfs",
      matching(MatchingPolicyOptions::BatchingReshuffleBestFirst(), true));
  registry.Register("greedy", [](const DistanceOracle* oracle,
                                 const Config& config, const PolicyOptions&) {
    return std::make_unique<GreedyPolicy>(oracle, config);
  });
  registry.Register("reyes", [](const DistanceOracle* oracle,
                                const Config& config, const PolicyOptions&) {
    return std::make_unique<ReyesPolicy>(&oracle->network(), config);
  });
}

}  // namespace

PolicyRegistry& PolicyRegistry::Global() {
  static PolicyRegistry* registry = [] {
    auto* r = new PolicyRegistry();
    RegisterBuiltins(*r);
    return r;
  }();
  return *registry;
}

void PolicyRegistry::Register(const std::string& name, Factory factory) {
  FM_CHECK_MSG(!name.empty(), "policy name must be non-empty");
  FM_CHECK(factory != nullptr);
  const bool inserted =
      factories_.emplace(name, std::move(factory)).second;
  FM_CHECK_MSG(inserted, "duplicate policy registration: '" << name << "'");
}

bool PolicyRegistry::Contains(const std::string& name) const {
  return factories_.count(name) > 0;
}

std::vector<std::string> PolicyRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;  // std::map iterates sorted
}

std::string PolicyRegistry::NamesString() const {
  std::string out;
  for (const auto& [name, factory] : factories_) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

std::unique_ptr<AssignmentPolicy> PolicyRegistry::Create(
    const std::string& name, const DistanceOracle* oracle,
    const Config& config, const PolicyOptions& options) const {
  auto it = factories_.find(name);
  FM_CHECK_MSG(it != factories_.end(), "unknown policy '"
                                           << name << "' — registered: "
                                           << NamesString());
  std::unique_ptr<AssignmentPolicy> policy = it->second(oracle, config,
                                                        options);
  FM_CHECK_MSG(policy != nullptr,
               "policy factory '" << name << "' returned null");
  return policy;
}

std::unique_ptr<AssignmentPolicy> PolicyRegistry::TryCreate(
    const std::string& name, const DistanceOracle* oracle,
    const Config& config, const PolicyOptions& options) const {
  if (!Contains(name)) return nullptr;
  return Create(name, oracle, config, options);
}

PolicyRegistrar::PolicyRegistrar(const std::string& name,
                                 PolicyRegistry::Factory factory) {
  PolicyRegistry::Global().Register(name, std::move(factory));
}

}  // namespace fm
