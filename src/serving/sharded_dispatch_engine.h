// Horizontally sharded serving: K region-partitioned DispatchEngines
// behind one event router.
//
// A ShardedDispatchEngine implements DispatchCore, so any driver written
// against the single-engine API (sim/simulator.h, a live gateway) can serve
// a region-sharded fleet unchanged. Construction builds one DispatchEngine
// per shard, each with its own policy instance created by name through
// PolicyRegistry, and events route as follows:
//
//   OrderPlaced         to the shard owning the order's restaurant node;
//                       the order lives in that shard for its whole life
//                       (reshuffle strips and reinstatements are
//                       shard-local, so it can never change hands).
//   VehicleStateUpdate  to the shard owning the vehicle. A vehicle's home
//                       shard follows its location: an *empty* vehicle
//                       whose update places it in a different region is
//                       migrated (VehicleRetired from the old shard, fresh
//                       announcement to the new one), while a vehicle with
//                       picked or unpicked orders — per the update's lists
//                       or the owning engine's record, so bare position
//                       pings count too — is pinned to its current shard
//                       until it has delivered everything: its in-flight
//                       orders belong to that shard's pool and bookkeeping.
//   OrderDelivered      to the shard that owns the order; the routing
//                       entry is dropped, so router state stays bounded.
//   VehicleRetired      to the shard that owns the vehicle.
//   WindowClosed        to every shard. Shard windows run in parallel on
//                       the engine's deterministic ThreadPool and the
//                       per-shard WindowResults are merged in shard order,
//                       so the merged result is bit-identical for any
//                       Config::threads. Orders the window rejected are
//                       dropped from the router's order table, matching
//                       their eviction from the shard's pool.
//
// Equivalence and determinism contract (pinned by
// tests/sharded_engine_test.cc and gated in bench_sharded_serving):
//
//   * K = 1 reproduces the single DispatchEngine's WindowResults
//     bit-for-bit — the router degenerates to a pass-through.
//   * For any K, results are bit-identical across Config::threads: shard
//     decisions depend only on each shard's event stream, which the serial
//     router fixes before any parallelism starts.
//
// Threading model: with K > 1 each shard engine runs its pipeline serially
// (shard_config.threads = 1) and the parallelism budget is spent *across*
// shards — one window's work is K independent serial pipelines on
// Config::threads lanes. With K = 1 the single engine inherits
// Config::threads and parallelizes within the pipeline as usual.
//
// Profiling: with ShardedEngineOptions::metrics set, the router observes
// its own regions into registry histograms — serving.route_seconds (one
// event routed into its shard), serving.shard_window_seconds (the
// fork-join over shards) and serving.merge_seconds (result concatenation).
// Each region is also a trace span while tracing is on. Without a registry
// the router reads no clock.
#ifndef FOODMATCH_SERVING_SHARDED_DISPATCH_ENGINE_H_
#define FOODMATCH_SERVING_SHARDED_DISPATCH_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "core/dispatch_engine.h"
#include "core/policy_registry.h"
#include "durability/recovery.h"
#include "graph/distance_oracle.h"
#include "model/config.h"
#include "obs/metrics_registry.h"
#include "serving/region_partitioner.h"

namespace fm {

// Everything one WindowClosed did across the fleet: the per-shard
// WindowResults (in shard order) plus their merge. The merge concatenates
// rejections, strips, assignments, and reinstatements in shard order —
// within a shard the engine's documented transition order is preserved, so
// a driver can mirror `merged` exactly as it would a single engine's
// result. merged.decision_seconds is the *maximum* over shards (the
// parallel makespan — what bounds the window in a live deployment);
// merged.decision.cost_evaluations and the phase seconds are sums.
struct FleetWindowResult {
  Seconds now = 0.0;
  std::vector<WindowResult> shards;
  WindowResult merged;
};

struct ShardedEngineOptions {
  // Forwarded to every shard engine (wall-clock measurement etc.).
  DispatchEngineOptions engine;
  // Durability: a non-empty `durability.dir` gives every shard its own WAL
  // + snapshot stream under that directory (durability/recovery.h).
  // Construction wipes the directory's files for these shards — a fresh
  // run must not replay a previous run's log; restore-from-disk is
  // RestoreShard's job, driven by the recovery tools. Logging is
  // bit-neutral: results are identical with durability on or off (gated by
  // tests/recovery_test.cc and bench_recovery).
  DurabilityConfig durability;
  // Observability registry. When set, the router registers the serving /
  // WAL / oracle / EdgeCache instrument set (docs/OBSERVABILITY.md) and
  // records per-window makespan + imbalance. Must outlive the engine;
  // null disables everything. Observability never feeds back into
  // decisions (gated by bench_observability).
  obs::MetricsRegistry* metrics = nullptr;
};

class ShardedDispatchEngine : public DispatchCore {
 public:
  // Builds partitioner->num_shards() engines. Each shard's policy is
  // created as PolicyRegistry::Global().Create(policy_name, oracle, ...);
  // `partitioner` and `oracle` must outlive the engine. `config.shards`
  // must equal partitioner->num_shards() (single source of truth for K).
  ShardedDispatchEngine(const RegionPartitioner* partitioner,
                        const std::string& policy_name,
                        const DistanceOracle* oracle, const Config& config,
                        const PolicyOptions& policy_options = {},
                        ShardedEngineOptions options = {});

  ShardedDispatchEngine(const ShardedDispatchEngine&) = delete;
  ShardedDispatchEngine& operator=(const ShardedDispatchEngine&) = delete;

  // Freezes this engine's callback instruments on options_.metrics so a
  // registry that outlives the engine keeps their final values.
  ~ShardedDispatchEngine() override;

  // DispatchCore intake (routing rules in the file comment).
  void Handle(OrderPlaced event) override;
  void Handle(VehicleStateUpdate event) override;
  void Handle(OrderDelivered event) override;
  void Handle(VehicleRetired event) override;
  // Runs the window across all shards and returns the merged result.
  WindowResult Handle(const WindowClosed& event) override;

  // Like Handle(WindowClosed) but also exposes the per-shard results —
  // for benches, tests, and callers that fan results back out per region.
  FleetWindowResult RunWindow(const WindowClosed& event);

  // Forwarded to every shard engine. While an observer is installed, shard
  // windows run serially in shard order so the observer sees one
  // deterministic sequence of per-shard WindowViews (results are identical
  // either way; only wall-clock changes).
  void set_observer(WindowObserver observer) override;

  std::size_t pending_orders() const override;

  // The cross-shard pool with K > 1 (null when serial); the single
  // engine's own pool with K = 1.
  ThreadPool* thread_pool() const override;

  int num_shards() const { return static_cast<int>(engines_.size()); }
  const DispatchEngine& shard(int s) const { return *engines_[s]; }
  // The partitioner events route through — streaming drivers reuse it to
  // build a matching intake-stage route (serving/streaming_replay.h).
  const RegionPartitioner& partitioner() const { return *partitioner_; }

  // Current owner of an order / vehicle, or -1 when unknown (never routed,
  // or already delivered/rejected/retired).
  int shard_of_order(OrderId id) const;
  int shard_of_vehicle(VehicleId id) const;

  // Size of the router's order table — live (placed or carried, not yet
  // delivered or rejected) orders only, so it is bounded by the in-flight
  // workload; rolling tests assert this alongside the engines' own state.
  std::size_t routed_orders() const { return order_shard_.size(); }

  // Cross-shard vehicle migrations performed so far (empty vehicles
  // re-homed after crossing a region boundary) — reported by bench_stress
  // and asserted by the shift-churn tests. A thin read of the
  // registry-grade instrument.
  std::uint64_t migrations() const { return migrations_.value(); }

  // Vehicle retirements routed (explicit VehicleRetired events plus the
  // synthetic retirement half of each migration).
  std::uint64_t retirements() const { return retirements_.value(); }

  // True once the engine has warned (on stderr, once) that fewer vehicles
  // than shards were announced — shards without vehicles can never assign.
  bool warned_fewer_vehicles_than_shards() const {
    return warned_small_fleet_;
  }

  // Discards shard `s`'s engine (simulating a crash that lost its resident
  // state) and rebuilds it from disk: a fresh policy + engine, the observer
  // re-installed, RecoverShard's snapshot-load + WAL replay, and the
  // shard's log reopened at the recovered cursor so serving continues
  // appending where the durable stream left off. Only the one shard is
  // touched — the router tables and every other shard keep serving.
  // Requires durability (aborts when options_.durability.dir is empty).
  // Must be called at a quiescent point (between windows, no event in
  // flight for the shard).
  RecoveryReport RestoreShard(int s);

  // Durable WAL records appended for shard `s` so far (0 when durability
  // is disabled) — lets tests assert logging actually happened.
  std::uint64_t durable_records(int s) const;

 private:
  // Registers the orders `snapshot` carries as owned by `shard` (how
  // warm-start orders, announced only inside a snapshot, become routable).
  void RecordCarriedOrders(const VehicleSnapshot& snapshot, int shard);

  // Registers the serving/WAL/oracle/EdgeCache instrument set on
  // options_.metrics.
  void RegisterMetrics();

  const RegionPartitioner* partitioner_;
  ShardedEngineOptions options_;

  // Construction inputs, kept so RestoreShard can rebuild a shard's policy
  // + engine exactly as the ctor did. The oracle is borrowed (it must
  // outlive the engine; already a ctor contract).
  std::string policy_name_;
  const DistanceOracle* oracle_ = nullptr;
  Config shard_config_;
  PolicyOptions policy_options_;
  WindowObserver observer_;

  // One policy + engine per shard; policies_ outlives engines_ (engines
  // borrow their policy), so it is declared first.
  std::vector<std::unique_ptr<AssignmentPolicy>> policies_;
  std::vector<std::unique_ptr<DispatchEngine>> engines_;

  // Per-shard WAL + snapshot writers (empty when durability is disabled).
  // Each instance is touched only by the thread driving its shard: the
  // router thread for event logging, and — inside the window fork-join —
  // the worker running that shard's window, which the routing phase
  // happens-before (the pool's task handoff orders them).
  std::vector<std::unique_ptr<ShardDurability>> durability_;

  // Lanes for the cross-shard window fork-join (K > 1 only).
  std::unique_ptr<ThreadPool> cross_shard_pool_;

  std::unordered_map<OrderId, int> order_shard_;
  std::unordered_map<VehicleId, int> vehicle_shard_;
  obs::Counter migrations_;
  obs::Counter retirements_;

  // Owned by options_.metrics; null without a registry. The fsync
  // histogram is shared by every shard's WAL writer (histograms are
  // thread-safe; shard workers observe concurrently inside the fork-join).
  obs::Histogram* route_seconds_ = nullptr;
  obs::Histogram* shard_window_seconds_ = nullptr;
  obs::Histogram* merge_seconds_ = nullptr;
  obs::Histogram* makespan_seconds_ = nullptr;
  obs::Gauge* makespan_imbalance_ = nullptr;
  obs::Histogram* fsync_seconds_ = nullptr;

  bool observer_installed_ = false;
  bool warned_small_fleet_ = false;
};

}  // namespace fm

#endif  // FOODMATCH_SERVING_SHARDED_DISPATCH_ENGINE_H_
