#include "core/matching_policy.h"

#include <chrono>
#include <utility>

#include "common/check.h"
#include "core/batching.h"
#include "matching/hungarian.h"
#include "obs/trace.h"

namespace fm {

MatchingPolicy::MatchingPolicy(const DistanceOracle* oracle,
                               const Config& config,
                               const MatchingPolicyOptions& options)
    : oracle_(oracle), config_(config), options_(options) {
  FM_CHECK(oracle != nullptr);
  config_.Validate();
  const int lanes = ThreadPool::ResolveThreadCount(config_.threads);
  if (lanes > 1) pool_ = std::make_unique<ThreadPool>(lanes);
  if (config_.incremental_graph) {
    cache_ = std::make_unique<EdgeCache>();
  }
}

std::string MatchingPolicy::name() const {
  if (options_.batching && options_.reshuffle && options_.best_first &&
      options_.angular) {
    return "FoodMatch";
  }
  if (!options_.batching && !options_.reshuffle && !options_.best_first &&
      !options_.angular) {
    return "KM";
  }
  std::string n = "KM";
  if (options_.batching || options_.reshuffle) n += "+B&R";
  if (options_.best_first) n += "+BFS";
  if (options_.angular) n += "+A";
  return n;
}

AssignmentDecision MatchingPolicy::Assign(
    const std::vector<Order>& unassigned,
    const std::vector<VehicleSnapshot>& vehicles, Seconds now) {
  AssignmentDecision decision;
  if (unassigned.empty() || vehicles.empty()) return decision;
  using Clock = std::chrono::steady_clock;
  const auto elapsed = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };

  // Step 1: form the order partition U1 — batches (Alg. 1, order-graph edge
  // weights sharded across pool_ lanes) or singletons (sharded likewise).
  const auto t0 = Clock::now();
  std::vector<Batch> batches;
  if (options_.batching) {
    BatchingResult batching =
        BatchOrders(*oracle_, config_, unassigned, now, pool_.get());
    batches = std::move(batching.batches);
  } else {
    obs::ScopedSpan span("batching.singletons", "phase");
    batches.resize(unassigned.size());
    ParallelFor(pool_.get(), unassigned.size(), [&](std::size_t i) {
      batches[i] = MakeSingletonBatch(*oracle_, unassigned[i], now);
    });
  }
  const auto t1 = Clock::now();
  decision.batching_seconds = elapsed(t0, t1);

  // Step 2: build the FOODGRAPH (edge fill sharded across pool_ lanes).
  FoodGraphOptions graph_options;
  graph_options.best_first = options_.best_first;
  graph_options.angular = options_.angular;
  graph_options.fixed_k = options_.fixed_k;
  FoodGraph graph =
      BuildFoodGraph(*oracle_, config_, graph_options, batches, vehicles, now,
                     pool_.get(), cache_.get());
  decision.cost_evaluations = graph.mcost_evaluations;
  const auto t2 = Clock::now();
  decision.graph_seconds = elapsed(t1, t2);

  // Step 3: minimum weight perfect matching (Kuhn–Munkres) — the largest
  // inherently serial phase; matching_seconds tracks its share as the
  // parallel phases shrink with --threads.
  const Assignment matching = SolveAssignment(graph.cost);
  decision.matching_seconds = elapsed(t2, Clock::now());

  // Step 4: emit assignments; matched pairs at the Ω weight are
  // no-assignments (the batch stays in the pool).
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const std::size_t j = matching.row_to_col[i];
    if (j == Assignment::kUnassigned) continue;
    if (graph.cost.at(i, j) >= config_.rejection_penalty) continue;
    decision.assignments.push_back(
        {std::move(batches[i].orders), vehicles[j].id});
  }
  return decision;
}

}  // namespace fm
